//! # incremental-flattening
//!
//! A Rust reproduction of *Incremental Flattening for Nested Data
//! Parallelism* (Henriksen, Thorøe, Elsman, Oancea — PPoPP 2019): a
//! nested-data-parallel IR and surface language, the moderate and
//! incremental flattening compilation passes, a simulated two-level GPU,
//! a threshold autotuner with branching-tree memoization, and the paper's
//! benchmark suite.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`ir`] (`flat-ir`) — the IR: source + target languages, type
//!   checker, reference interpreter, pretty-printer, fusion.
//! * [`lang`] (`flat-lang`) — the Futhark-like surface language.
//! * [`compiler`] (`incflat`) — moderate/incremental flattening.
//! * [`gpu`] (`gpu-sim`) — device models and the cost simulator.
//! * [`tuning`] (`autotune`) — the threshold autotuner.
//! * [`bench_suite`] (`benchmarks`) — the paper's evaluated programs.
//! * [`bench`] (`flat-bench`) — the evaluation harness: figure/table
//!   binaries, benchmark baselines, and the regression gate.
//! * [`obs`] (`flat-obs`) — tracing spans, metric registries, and the
//!   summary / JSON-lines / Chrome-trace sinks (`FLAT_OBS=...`).
//! * [`fuzz`] (`flat-fuzz`) — differential fuzzing of version
//!   equivalence: program generator, threshold-path oracle, shrinker,
//!   and the replayable failure corpus (`flatc fuzz`).
//! * [`verify`] (`flat-verify`) — the inter-pass IR verifier:
//!   well-formedness, symbolic size analysis, threshold-tree lint, and
//!   segop write-disjointness, with provenance-anchored diagnostics
//!   (`flatc lint`, `--verify`).
//! * [`vm`] (`flat-vm`) — the CPU executor: lowers flattened programs
//!   to a flat register bytecode and runs `segmap`/`segred`/`segscan`
//!   as work-stealing kernels, with live threshold dispatch against the
//!   actual `Par(...)` degrees and wall-clock measurement for tuning
//!   (`flatc exec`, `flatc tune --backend vm`).
//! * [`exec`] (`flat-exec`) — the runtime types the executor shares
//!   with its callers: `ExecConfig`, `ExecReport`, `Measurement`,
//!   telemetry rendering, and dataset materialization.
//! * [`perf`] (`flat-perf`) — the performance observatory: the
//!   persistent run archive, provenance-aligned attribution diffing,
//!   and the threshold-regret what-if profiler (`flatc perf`).
//!
//! ## Quick start
//!
//! ```
//! use incremental_flattening::prelude::*;
//!
//! // 1. Write a nested-parallel program.
//! let src = "
//! def sumrows [n][m] (xss: [n][m]f32): [n]f32 =
//!   map (\\xs -> reduce (+) 0f32 xs) xss
//! ";
//! let prog = lang::compile(src, "sumrows").unwrap();
//!
//! // 2. Flatten incrementally: a multi-versioned GPU program.
//! let flat = compiler::flatten_incremental(&prog).unwrap();
//!
//! // 3. Simulate on a device at the default thresholds.
//! let args = vec![
//!     gpu::AbsValue::known(ir::Const::I64(1024)),
//!     gpu::AbsValue::known(ir::Const::I64(1024)),
//!     gpu::AbsValue::array(vec![1024, 1024], ir::ScalarType::F32),
//! ];
//! let report = gpu::simulate(
//!     &flat.prog, &args, &Thresholds::new(), &gpu::DeviceSpec::k40(),
//! ).unwrap();
//! assert!(report.microseconds > 0.0);
//! ```

pub use autotune as tuning;
pub use benchmarks as bench_suite;
pub use flat_bench as bench;
pub use flat_exec as exec;
pub use flat_fuzz as fuzz;
pub use flat_ir as ir;
pub use flat_lang as lang;
pub use flat_obs as obs;
pub use flat_perf as perf;
pub use flat_serve as serve;
pub use flat_verify as verify;
pub use flat_vm as vm;
pub use gpu_sim as gpu;
pub use incflat as compiler;

/// Common imports for working with the reproduction.
pub mod prelude {
    pub use crate::{
        bench, bench_suite, compiler, exec, fuzz, gpu, ir, lang, obs, perf, serve, tuning,
        verify, vm,
    };
    pub use flat_ir::interp::Thresholds;
}
