//! Runtime observability for the executor: per-kernel scheduler
//! telemetry, wall-clock worker timelines, utilization reports, and the
//! JSONL live sample log.
//!
//! Everything here *reads* an [`ExecReport`] produced with
//! `ExecConfig::telemetry` (or `worker_trace`) set; nothing perturbs
//! execution. Three render targets:
//!
//! * [`worker_trace_events`] — a Chrome trace with one track per pool
//!   worker (plus one for calling threads and one for kernel-level
//!   spans), on the *pool clock* in real nanoseconds. This is distinct
//!   from `gpu_sim::trace_events` over [`crate::kernel_launches`],
//!   which renders through the synthetic 1 cycle = 1 ns host device.
//! * [`render_exec_report`] — a human-readable utilization and
//!   load-imbalance report: per-worker busy fractions, steal rates, and
//!   a grain-efficiency digest of task sizes per kernel.
//! * [`sample_log_lines`] — one JSON object per dispatched kernel with
//!   `(shape class, path signature, threads, grain, wall_ns)`, the live
//!   observations `autotune::samples` joins against the branching tree.

use crate::report::{ExecLaunch, ExecReport};
use flat_obs::json::Value;
use flat_obs::metrics::{Histogram, HistogramSnapshot};
use flat_obs::TraceEvent;

/// Per-kernel scheduler telemetry, captured around one host-level
/// kernel dispatch.
#[derive(Clone, Debug)]
pub struct KernelTelem {
    /// Pool counter delta across the kernel: what each slot did while
    /// this kernel ran.
    pub pool: workpool::PoolTelemetry,
    /// Histogram of task sizes (elements per pool task) the grain-based
    /// decomposition produced — the grain-efficiency signal.
    pub task_sizes: HistogramSnapshot,
}

/// Reconstruct the task-size histogram of a kernel's decomposition.
/// Mirrors the chunking in `seg_map` / `seg_red` / `seg_scan` exactly:
/// sizes depend only on the space and the grain, never on threads.
/// Public so the bytecode VM (`flat-vm`), which inherits the same
/// decomposition, reports identical telemetry.
pub fn task_size_histogram(
    is_map: bool,
    total: i64,
    segments: i64,
    inner_w: i64,
    grain: usize,
) -> HistogramSnapshot {
    let h = Histogram::default();
    match is_map {
        true => {
            let total = total.max(0) as usize;
            let n_chunks = total.div_ceil(grain);
            for c in 0..n_chunks {
                let lo = c * grain;
                let hi = ((c + 1) * grain).min(total);
                h.observe((hi - lo) as u64);
            }
        }
        false => {
            if segments > 0 && total > 0 {
                let g = grain as i64;
                let blocks = ((inner_w + g - 1) / g).max(1);
                for b in 0..blocks {
                    let size = (inner_w - b * g).min(g).max(0);
                    for _ in 0..segments {
                        h.observe(size as u64);
                    }
                }
            }
        }
    }
    h.snapshot()
}

/// Bucket a shape into a coarse equivalence class by rounding every
/// dimension up to a power of two: `[5, 13]` → `"2^3x2^4"`. Scalars
/// (empty shape) are `"unit"`. This is the shape key of the live sample
/// log — fine enough to separate "wide inner, narrow outer" from its
/// transpose, coarse enough that repeated runs aggregate.
pub fn shape_class(widths: &[i64]) -> String {
    if widths.is_empty() {
        return "unit".to_string();
    }
    widths
        .iter()
        .map(|&w| {
            if w <= 0 {
                "0".to_string()
            } else {
                format!("2^{}", 64 - (w as u64 - 1).leading_zeros().min(64))
            }
        })
        .collect::<Vec<_>>()
        .join("x")
}

/// `"t0+ t2-"` — same rendering as `autotune::render_signature`,
/// duplicated here so the executor does not depend on the tuner.
fn render_sig(sig: &[(u32, bool)]) -> String {
    sig.iter()
        .map(|(id, taken)| format!("t{id}{}", if *taken { "+" } else { "-" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Track ids in the worker trace: tid 0 carries kernel-level spans,
/// tid `1 + slot` carries the task spans of telemetry slot `slot`
/// (spawned workers first, calling threads last).
pub const KERNEL_TRACK: u64 = 0;

fn slot_tid(slot: usize) -> u64 {
    1 + slot as u64
}

fn slot_name(slot: usize, workers: usize) -> String {
    if slot >= workers {
        "caller".to_string()
    } else {
        format!("worker-{slot}")
    }
}

/// Render a telemetry-enabled report as Chrome trace events on the pool
/// clock: one named track per pool worker plus a caller track and a
/// kernel track, with every span carrying the kernel's provenance and
/// threshold-path signature. Write with `flat_obs::chrome::write_trace`
/// and load in Perfetto.
pub fn worker_trace_events(rep: &ExecReport) -> Vec<TraceEvent> {
    let workers = rep.threads.saturating_sub(1);
    let mut events = Vec::new();
    let meta = |tid: u64, name: String| TraceEvent {
        name: "thread_name".to_string(),
        cat: "__metadata".to_string(),
        ph: 'M',
        ts_us: 0.0,
        dur_us: 0.0,
        tid,
        args: vec![("name".to_string(), Value::from(name))],
    };
    events.push(meta(KERNEL_TRACK, "kernels (host)".to_string()));
    for slot in 0..=workers {
        events.push(meta(slot_tid(slot), slot_name(slot, workers)));
    }

    let mut by_tag: Vec<(u64, &ExecLaunch)> = Vec::new();
    for l in &rep.launches {
        let args = vec![
            ("kind".to_string(), Value::from(l.kind)),
            ("prov".to_string(), Value::from(l.prov.id.0)),
            ("path".to_string(), Value::from(render_sig(&l.path))),
            ("tasks".to_string(), Value::from(l.tasks)),
            ("space".to_string(), Value::from(l.space)),
            ("shape_class".to_string(), Value::from(shape_class(&l.widths))),
        ];
        events.push(TraceEvent {
            name: l.name.clone(),
            cat: "exec".to_string(),
            ph: 'X',
            ts_us: l.pool_start_ns as f64 / 1_000.0,
            dur_us: l.nanos / 1_000.0,
            tid: KERNEL_TRACK,
            args,
        });
        if l.tag != 0 {
            by_tag.push((l.tag, l));
        }
    }

    for span in &rep.spans {
        let launch = by_tag.iter().find(|(t, _)| *t == span.tag).map(|(_, l)| *l);
        let (name, mut args) = match launch {
            Some(l) => (
                l.name.clone(),
                vec![
                    ("kind".to_string(), Value::from(l.kind)),
                    ("prov".to_string(), Value::from(l.prov.id.0)),
                    ("path".to_string(), Value::from(render_sig(&l.path))),
                ],
            ),
            None => ("task".to_string(), Vec::new()),
        };
        args.push(("task".to_string(), Value::from(span.index)));
        events.push(TraceEvent {
            name,
            cat: "exec.worker".to_string(),
            ph: 'X',
            ts_us: span.start_ns as f64 / 1_000.0,
            dur_us: (span.dur_ns as f64 / 1_000.0).max(1e-3),
            tid: slot_tid(span.worker),
            args,
        });
    }
    events
}

fn pct(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        100.0 * num / den
    } else {
        0.0
    }
}

/// Human-readable utilization / load-imbalance report over a
/// telemetry-enabled run: pool-level utilization and steal totals, then
/// one block per kernel with per-worker busy fractions and the
/// grain-efficiency digest of its task sizes.
pub fn render_exec_report(rep: &ExecReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- exec report: {} kernel(s), {} thread(s), grain {}, wall {:.1} µs --",
        rep.launches.len(),
        rep.threads,
        rep.grain,
        rep.wall_nanos / 1_000.0
    );
    let Some(pool) = &rep.pool else {
        let _ = writeln!(out, "  (telemetry was off: run with --exec-report or cfg.telemetry)");
        return out;
    };
    let total = pool.total();
    let slots = pool.workers.len().max(1);
    let capacity_ns = rep.wall_nanos * slots as f64;
    let _ = writeln!(
        out,
        "pool utilization: {:.1}% busy ({:.1} µs busy / {} slots x {:.1} µs wall)",
        pct(total.busy_ns as f64, capacity_ns),
        total.busy_ns as f64 / 1_000.0,
        slots,
        rep.wall_nanos / 1_000.0
    );
    let _ = writeln!(
        out,
        "tasks {}: {} local + {} stolen ({:.1}% steal rate), {} failed steal scans, {} parks",
        total.tasks,
        total.local_pops,
        total.steals,
        pct(total.steals as f64, total.tasks as f64),
        total.steal_fails,
        total.parks
    );

    for l in &rep.launches {
        let _ = writeln!(
            out,
            "\nkernel {} [{}]  space {:.0}  tasks {}  wall {:.1} µs  path '{}'",
            l.name,
            l.kind,
            l.space,
            l.tasks,
            l.nanos / 1_000.0,
            render_sig(&l.path)
        );
        let Some(t) = &l.telem else { continue };
        let ktotal = t.pool.total();
        let busy: Vec<String> = t
            .pool
            .workers
            .iter()
            .enumerate()
            .map(|(slot, w)| {
                format!(
                    "{} {:.0}%",
                    slot_name(slot, t.pool.workers.len().saturating_sub(1)),
                    pct(w.busy_ns as f64, l.nanos)
                )
            })
            .collect();
        let _ = writeln!(out, "  busy/worker: [{}]", busy.join(", "));
        let fracs: Vec<f64> = t
            .pool
            .workers
            .iter()
            .map(|w| pct(w.busy_ns as f64, l.nanos))
            .collect();
        let max_f = fracs.iter().cloned().fold(0.0, f64::max);
        let min_f = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "  imbalance: max-min busy {:.0} pp; steals {} / tasks {} ({:.1}%)",
            (max_f - min_f).max(0.0),
            ktotal.steals,
            ktotal.tasks,
            pct(ktotal.steals as f64, ktotal.tasks as f64)
        );
        let ts = &t.task_sizes;
        let _ = writeln!(
            out,
            "  grain efficiency: {} task(s), size p50 {:.0} / p99 {:.0} / max {} (grain {}), mean fill {:.1}%",
            ts.count,
            ts.p50(),
            ts.p99(),
            ts.max,
            rep.grain,
            pct(ts.mean(), rep.grain as f64)
        );
    }
    out
}

/// One JSON object per dispatched kernel: the live `(shape class, path
/// signature, threads, grain, wall_ns)` sample the autotuner's loader
/// (`autotune::samples`) consumes. `program` names the run so logs from
/// several programs can share a file.
pub fn sample_log_lines(rep: &ExecReport, program: &str) -> Vec<Value> {
    rep.launches
        .iter()
        .map(|l| {
            Value::object(vec![
                // Line format version (autotune::samples::SAMPLE_SCHEMA;
                // a literal here because exec does not depend on the
                // tuner). Loaders skip lines with versions they don't
                // understand.
                ("schema", Value::from(1u32)),
                ("program", Value::from(program)),
                ("kernel", Value::from(l.name.as_str())),
                ("kind", Value::from(l.kind)),
                ("shape_class", Value::from(shape_class(&l.widths))),
                ("space", Value::from(l.space)),
                ("sig", Value::from(render_sig(&l.path))),
                (
                    "path",
                    Value::Array(
                        l.path
                            .iter()
                            .map(|(id, taken)| {
                                Value::Array(vec![Value::from(*id), Value::from(*taken)])
                            })
                            .collect(),
                    ),
                ),
                ("threads", Value::from(rep.threads)),
                ("grain", Value::from(rep.grain)),
                ("wall_ns", Value::from(l.nanos as u64)),
                ("prov", Value::from(l.prov.id.0)),
            ])
        })
        .collect()
}

/// Append `rep`'s samples to a JSONL file (created if absent).
pub fn append_sample_log(path: &std::path::Path, rep: &ExecReport, program: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for line in sample_log_lines(rep, program) {
        writeln!(f, "{}", flat_obs::json::to_string(&line).expect("sample serializes"))?;
    }
    Ok(())
}

/// Whether the `FLAT_OBS` environment variable requests any sink — the
/// existing toggle that also switches executor telemetry on in `flatc`.
pub fn telemetry_requested_by_env() -> bool {
    !flat_obs::sink::sinks_from_env().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classes_bucket_by_ceil_log2() {
        assert_eq!(shape_class(&[]), "unit");
        assert_eq!(shape_class(&[1]), "2^0");
        assert_eq!(shape_class(&[2]), "2^1");
        assert_eq!(shape_class(&[5, 13]), "2^3x2^4");
        assert_eq!(shape_class(&[1024]), "2^10");
        assert_eq!(shape_class(&[0, 7]), "0x2^3");
        // The class is stable within a power-of-two band...
        assert_eq!(shape_class(&[9]), shape_class(&[16]));
        // ...and separates a matrix from its transpose when the bands
        // differ.
        assert_ne!(shape_class(&[16, 4096]), shape_class(&[4096, 16]));
    }

    /// Golden test: `render_exec_report` over a hand-built report with
    /// fixed numbers must produce exactly this text. Guards the format
    /// `flatc exec --exec-report` users (and the docs) depend on.
    #[test]
    fn exec_report_rendering_is_stable() {
        use crate::report::{ExecLaunch, ExecReport};
        use flat_ir::ast::LVL_GRID;
        use flat_ir::prov::Prov;
        use workpool::{PoolTelemetry, WorkerTelemetry};

        let worker = |tasks, local_pops, steals, steal_fails, parks, busy_ns| WorkerTelemetry {
            tasks,
            local_pops,
            steals,
            steal_fails,
            parks,
            busy_ns,
        };
        // Slot 0 is the spawned worker, the final slot the caller.
        let pool = PoolTelemetry {
            workers: vec![worker(6, 4, 2, 1, 1, 6_000), worker(2, 2, 0, 0, 0, 4_000)],
        };
        let launch = ExecLaunch {
            name: "redres".to_string(),
            kind: "segred",
            level: LVL_GRID,
            space: 256.0,
            tasks: 8,
            nanos: 8_000.0,
            start_nanos: 0.0,
            prov: Prov::UNKNOWN,
            path: vec![(0, false), (1, true)],
            widths: vec![32, 8],
            tag: 1,
            pool_start_ns: 0,
            telem: Some(KernelTelem {
                pool: pool.clone(),
                // segmap-style cut of 10 elements at grain 4: tasks of
                // size 4, 4, 2.
                task_sizes: task_size_histogram(true, 10, 1, 10, 4),
            }),
        };
        let rep = ExecReport {
            values: vec![],
            path: vec![],
            launches: vec![launch],
            wall_nanos: 10_000.0,
            threads: 2,
            grain: 4,
            pool: Some(pool),
            spans: vec![],
        };
        let golden = "\
-- exec report: 1 kernel(s), 2 thread(s), grain 4, wall 10.0 µs --
pool utilization: 50.0% busy (10.0 µs busy / 2 slots x 10.0 µs wall)
tasks 8: 6 local + 2 stolen (25.0% steal rate), 1 failed steal scans, 1 parks

kernel redres [segred]  space 256  tasks 8  wall 8.0 µs  path 't0- t1+'
  busy/worker: [worker-0 75%, caller 50%]
  imbalance: max-min busy 25 pp; steals 2 / tasks 8 (25.0%)
  grain efficiency: 3 task(s), size p50 3 / p99 4 / max 4 (grain 4), mean fill 83.3%
";
        assert_eq!(render_exec_report(&rep), golden);

        // Telemetry off: the report degrades to a header plus a hint.
        let bare = ExecReport {
            values: vec![],
            path: vec![],
            launches: vec![],
            wall_nanos: 2_500.0,
            threads: 4,
            grain: 1024,
            pool: None,
            spans: vec![],
        };
        assert_eq!(
            render_exec_report(&bare),
            "-- exec report: 0 kernel(s), 4 thread(s), grain 1024, wall 2.5 µs --\n  \
             (telemetry was off: run with --exec-report or cfg.telemetry)\n"
        );
    }

    #[test]
    fn task_size_histograms_mirror_the_decomposition() {
        // segmap: 10 elements at grain 4 -> tasks of 4, 4, 2.
        let h = task_size_histogram(true, 10, 1, 10, 4);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 10);
        assert_eq!(h.max, 4);
        // empty space -> no tasks.
        assert_eq!(task_size_histogram(true, 0, 1, 0, 4).count, 0);
    }
}
