//! # flat-exec
//!
//! The runtime types shared by every CPU execution of a flattened
//! *target-language* program. The executor itself is `flat-vm`, which
//! lowers the program to register bytecode and runs its kernels on the
//! vendored work-stealing pool (`workpool`); the reference interpreter
//! ([`flat_ir::interp`]) defines the semantics both are checked against.
//!
//! * [`ExecConfig`] (live thresholds, thread count, grain, telemetry
//!   switches) goes in; [`ExecReport`] (values, the live-dispatched
//!   threshold path, one [`ExecLaunch`] per kernel, pool telemetry)
//!   comes out; failures are [`ExecError`]s.
//! * [`Measurement`] summarizes median-of-k wall-clock timings, which
//!   `autotune` uses as a measured cost function (`flatc tune --backend
//!   vm`) through [`sim_report_of`].
//! * [`materialize`] fills abstract dataset descriptions with seeded
//!   data; [`obs`] renders telemetry (worker traces, utilization
//!   reports, the live sample log).
//! * [`host_device`] and [`kernel_launches`] let the simulator's
//!   profile, attribution, and trace renderers display measured runs.
//!
//! See `docs/EXECUTION.md` for the architecture and the determinism
//! guarantees.

mod data;
mod measure;
pub mod obs;
mod report;

pub use data::materialize;
pub use measure::Measurement;
pub use obs::{
    append_sample_log, render_exec_report, sample_log_lines, shape_class, task_size_histogram,
    telemetry_requested_by_env, worker_trace_events, KernelTelem,
};
pub use report::{ExecConfig, ExecError, ExecLaunch, ExecReport, DEFAULT_GRAIN};
pub use workpool::default_threads;

use gpu_sim::{CostReport, DeviceSpec, KernelCost, KernelLaunch, SimReport};

/// A synthetic [`DeviceSpec`] for rendering executor measurements with
/// the simulator's attribution and profile machinery. Its clock is
/// 1 GHz, so a "cycle" is one nanosecond and `cycles_to_us` divides by
/// 1000 — exactly the nanosecond-to-microsecond conversion.
pub fn host_device(threads: usize) -> DeviceSpec {
    DeviceSpec {
        name: "host",
        compute_units: threads.max(1) as u32,
        cores_per_unit: 1,
        max_group_size: 1,
        default_group_size: 1,
        local_mem_bytes: 0,
        max_resident_threads: 1,
        clock_ghz: 1.0,
        global_bytes_per_cycle: 1.0,
        local_bytes_per_cycle: 1.0,
        launch_overhead_cycles: 0.0,
        barrier_cost_cycles: 0.0,
    }
}

/// Convert an execution report's launches to the simulator's
/// [`KernelLaunch`] shape, with one "cycle" per nanosecond of measured
/// wall time, so `gpu_sim::build_attr`, `render_attr_table`,
/// `profile_table`, and `trace_events` render executor profiles
/// identically to simulator profiles (paired with [`host_device`]).
pub fn kernel_launches(rep: &ExecReport) -> Vec<KernelLaunch> {
    rep.launches
        .iter()
        .map(|l| KernelLaunch {
            name: l.name.clone(),
            kind: l.kind,
            level: l.level,
            groups: l.tasks as f64,
            group_threads: if l.tasks > 0 {
                l.space / l.tasks as f64
            } else {
                0.0
            },
            threads: l.space,
            occupancy: (l.tasks as f64 / rep.threads.max(1) as f64).min(1.0),
            cost: KernelCost {
                cycles: l.nanos,
                ..Default::default()
            },
            global_bytes: 0.0,
            local_bytes: 0.0,
            launches: 1,
            start_cycle: l.start_nanos,
            prov: l.prov,
            path: l.path.clone(),
        })
        .collect()
}

/// Synthesize a [`SimReport`] from an execution: total "cycles" are the
/// given cost in nanoseconds (a median over repetitions, typically),
/// the path is the live-dispatched threshold path, and the kernels are
/// the converted launch records. This is what lets the autotuner (and
/// its branching-tree cache, which only consumes `path` and
/// `total_cycles`) run unchanged against measured time.
pub fn sim_report_of(rep: &ExecReport, cost_nanos: f64) -> SimReport {
    SimReport {
        cost: CostReport {
            total_cycles: cost_nanos,
            kernel_launches: rep.launches.len() as u64,
            ..Default::default()
        },
        path: rep.path.clone(),
        microseconds: cost_nanos / 1_000.0,
        kernels: kernel_launches(rep),
    }
}
