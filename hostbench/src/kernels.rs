//! The `kernels-intra` and `kernels-flat` workloads: matmul and
//! LocVolCalib run back to back in a closed loop on the VM, compiled
//! once in set-up.
//!
//! * `kernels-intra` uses host-sized shapes at the default thresholds,
//!   which pick the intra-group version: one level-1 `segmap` whose
//!   level-0 scans and redomaps re-enter the pool.
//! * `kernels-flat` uses narrow-outer, wide-inner shapes with every
//!   threshold at `i64::MAX`, which selects the fully flattened version:
//!   a chain of host-level fixed-grain `segred`/`segscan` kernels.

use crate::stats::{median, quantile, ratio};
use crate::{check, native, pipeline, Ctx, Metric, Outcome, Tally};
use flat_exec::{ExecConfig, ExecReport};
use flat_ir::interp::Thresholds;
use flat_ir::value::{Buffer, Value};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    Intra,
    Flat,
}

/// Closed-loop iterations measured at least, whatever `--seconds` says.
const MIN_ITERS: usize = 5;
/// Set-ups before the timed loop, and after each timed iteration
/// (outside the loop's time budget), so that `setup_s` samples the
/// whole run.
const SETUP_REPS: usize = 20;
const SETUPS_PER_ITER: usize = 3;
/// `setup_s` is this quantile of the set-up times, not their median.
/// Set-up is memory-bound, and on a shared host it slows by up to 1.7x
/// in spells of memory contention lasting 0.5-15 s, so a run's median
/// lands in either mode. The low quantile reads the uncontended cost,
/// which is what a change to set-up moves (see README.md).
const SETUP_QUANTILE: f64 = 0.1;
/// Repetitions behind each compile-layer and native-ceiling median.
const LAYER_REPS: usize = 21;
const NATIVE_REPS: usize = 3;

/// One benchmark program at one shape.
struct Spec {
    name: &'static str,
    source: &'static str,
    entry: &'static str,
    args: Vec<String>,
    /// Arguments sharing the outer dimension, and the size argument
    /// that carries it: the interpreter check runs on a seeded subset
    /// of those outer slices.
    outer_args: &'static [usize],
    size_arg: usize,
    interp_rows: usize,
}

fn specs(shape: Shape) -> Vec<Spec> {
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let (mm, lvc, mm_rows, lvc_rows) = match shape {
        Shape::Intra => (
            args(&["256", "256", "256", "[256][256]f32", "[256][256]f32"]),
            args(&[
                "128",
                "64",
                "32",
                "[128][64][32]f32",
                "[128][32][64]f32",
                "4",
            ]),
            4,
            2,
        ),
        Shape::Flat => (
            args(&["64", "4096", "64", "[64][4096]f32", "[4096][64]f32"]),
            args(&[
                "2",
                "128",
                "128",
                "[2][128][128]f32",
                "[2][128][128]f32",
                "4",
            ]),
            1,
            1,
        ),
    };
    vec![
        Spec {
            name: "matmul",
            source: benchmarks::matmul::SOURCE,
            entry: "matmul",
            args: mm,
            outer_args: &[3],
            size_arg: 0,
            interp_rows: mm_rows,
        },
        Spec {
            name: "locvolcalib",
            source: benchmarks::locvolcalib::SOURCE,
            entry: "locvolcalib",
            args: lvc,
            outer_args: &[3, 4],
            size_arg: 0,
            interp_rows: lvc_rows,
        },
    ]
}

/// A program ready to run: compiled, with its thresholds and inputs.
struct Prepared {
    spec: Spec,
    compiled: pipeline::Compiled,
    thresholds: Thresholds,
    inputs: Vec<Value>,
}

fn prepare(spec: Spec, shape: Shape, data_seed: u64) -> Result<Prepared, String> {
    let compiled = pipeline::compile(spec.source, spec.entry)?;
    let mut thresholds = Thresholds::new();
    if shape == Shape::Flat {
        for info in compiled.flattened.thresholds.iter() {
            thresholds.set(info.id, i64::MAX);
        }
    }
    let abs = spec
        .args
        .iter()
        .map(|s| flat_serve::proto::parse_abs_value(s))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = flat_exec::materialize(&abs, data_seed).map_err(|e| e.0)?;
    Ok(Prepared {
        spec,
        compiled,
        thresholds,
        inputs,
    })
}

fn cfg(p: &Prepared, threads: usize, telemetry: bool) -> ExecConfig {
    ExecConfig {
        thresholds: p.thresholds.clone(),
        threads: Some(threads),
        telemetry,
        ..ExecConfig::default()
    }
}

/// One closed-loop iteration: each program once. Returns the iteration
/// time and each program's time (ms) and report.
fn iterate(
    progs: &[Prepared],
    cfgs: &[ExecConfig],
) -> Result<(f64, Vec<(f64, ExecReport)>), String> {
    let t = Instant::now();
    let mut runs = Vec::with_capacity(progs.len());
    for (p, c) in progs.iter().zip(cfgs) {
        let tp = Instant::now();
        let rep = flat_vm::run_compiled(&p.compiled.code, &p.inputs, c).map_err(|e| e.0)?;
        runs.push((tp.elapsed().as_secs_f64() * 1e3, rep));
    }
    Ok((t.elapsed().as_secs_f64() * 1e3, runs))
}

fn data_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `k` distinct indices below `n`, drawn from `seed`.
fn pick_rows(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut x = seed | 1;
    let mut rows = Vec::new();
    while rows.len() < k.min(n) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = ((x >> 33) as usize) % n;
        if !rows.contains(&r) {
            rows.push(r);
        }
    }
    rows
}

/// Interpreter agreement on a seeded subset of outer slices: run
/// `flat_ir::interp` on the sub-problem and compare with the same slices
/// of the VM's result. The interpreter takes 0.5-30 s on the full
/// shapes, so the check samples slices instead.
fn interp_check(p: &Prepared, vm_out: &[Value], seed: u64) -> Result<bool, String> {
    let n = size(&p.inputs[p.spec.size_arg])?;
    let rows = pick_rows(n, p.spec.interp_rows, seed);
    let mut args = p.inputs.clone();
    args[p.spec.size_arg] = Value::i64_(rows.len() as i64);
    for &i in p.spec.outer_args {
        let Value::Array(a) = &p.inputs[i] else {
            return Err("outer argument is a scalar".into());
        };
        args[i] = Value::Array(check::take_outer(a, &rows));
    }
    let want = flat_ir::interp::run_program(&p.compiled.flattened.prog, &args, &p.thresholds)
        .map_err(|e| format!("interpreter: {e}"))?;
    let got: Vec<Value> = vm_out
        .iter()
        .map(|v| match v {
            Value::Array(a) => Value::Array(check::take_outer(a, &rows)),
            s => s.clone(),
        })
        .collect();
    Ok(check::within_envelope(&got, &want))
}

fn f32s(v: &Value) -> Result<&[f32], String> {
    match v {
        Value::Array(a) => match &a.data {
            Buffer::F32(xs) => Ok(xs),
            _ => Err("expected an f32 array".into()),
        },
        Value::Scalar(_) => Err("expected an array".into()),
    }
}

/// A size argument's value.
fn size(v: &Value) -> Result<usize, String> {
    match v {
        Value::Scalar(c) => Ok(c.as_i64().ok_or("size argument is not an integer")? as usize),
        Value::Array(_) => Err("size argument is an array".into()),
    }
}

fn f32_array(shape: &[i64], data: Vec<f32>) -> Value {
    Value::Array(flat_ir::value::ArrayVal {
        shape: shape.to_vec(),
        data: Buffer::F32(data),
    })
}

/// The native ceiling of `p` on its inputs, shaped like the VM's result.
fn native_run(p: &Prepared, threads: usize) -> Result<Vec<Value>, String> {
    let a = &p.inputs;
    match p.spec.name {
        "matmul" => {
            let (n, m, q) = (size(&a[0])?, size(&a[1])?, size(&a[2])?);
            let out = native::matmul(n, m, q, f32s(&a[3])?, f32s(&a[4])?, threads);
            Ok(vec![f32_array(&[n as i64, q as i64], out)])
        }
        "locvolcalib" => {
            let (s, x, y, t) = (size(&a[0])?, size(&a[1])?, size(&a[2])?, size(&a[5])?);
            let (xs, ys) = native::locvolcalib(f32s(&a[3])?, y, f32s(&a[4])?, x, t, threads);
            let (s, x, y) = (s as i64, x as i64, y as i64);
            Ok(vec![f32_array(&[s, x, y], xs), f32_array(&[s, y, x], ys)])
        }
        other => Err(format!("no native ceiling for {other}")),
    }
}

/// Per-iteration layer counters of one traced iteration.
#[derive(Default)]
struct Telem {
    kernel_ms: f64,
    host_ms: f64,
    launches: f64,
    tasks: f64,
    steals: f64,
    steal_fails: f64,
    parks: f64,
    busy_frac: f64,
}

fn telem_of(runs: &[(f64, ExecReport)]) -> Telem {
    let mut t = Telem::default();
    let (mut busy_ns, mut slot_ns) = (0.0, 0.0);
    for (ms, rep) in runs {
        let kernel: f64 = rep.launches.iter().map(|l| l.nanos).sum::<f64>() / 1e6;
        t.kernel_ms += kernel;
        t.host_ms += ms - kernel;
        t.launches += rep.launches.len() as f64;
        if let Some(pool) = &rep.pool {
            let tot = pool.total();
            t.tasks += tot.tasks as f64;
            t.steals += tot.steals as f64;
            t.steal_fails += tot.steal_fails as f64;
            t.parks += tot.parks as f64;
            busy_ns += tot.busy_ns as f64;
        }
        slot_ns += rep.wall_nanos * rep.threads as f64;
    }
    t.busy_frac = ratio(busy_ns, slot_ns);
    t
}

pub fn run(shape: Shape, ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();

    // Set-up: compile every program and generate its inputs. The first
    // set-up is the one used; the others are timed and dropped.
    let setup = || -> Result<(Vec<Prepared>, f64), String> {
        let t = Instant::now();
        let progs = specs(shape)
            .into_iter()
            .enumerate()
            .map(|(i, s)| prepare(s, shape, data_seed(ctx.seed, i)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((progs, t.elapsed().as_secs_f64()))
    };
    let (progs, first) = setup()?;
    let mut setups = vec![first];
    for _ in 1..SETUP_REPS {
        setups.push(setup()?.1);
    }
    let plain: Vec<ExecConfig> = progs.iter().map(|p| cfg(p, ctx.threads, false)).collect();
    let traced: Vec<ExecConfig> = progs.iter().map(|p| cfg(p, ctx.threads, true)).collect();

    // Warm-up iteration; its results are the reference every later run
    // must reproduce bit for bit.
    let (_, warm) = iterate(&progs, &plain)?;
    let mut notes: Vec<String> = progs
        .iter()
        .zip(&warm)
        .map(|(p, (_, rep))| {
            format!(
                "{} {} path {}",
                p.spec.name,
                p.spec.args.join(" "),
                path_names(p, rep)
            )
        })
        .collect();
    let reference: Vec<Vec<Value>> = warm.into_iter().map(|(_, r)| r.values).collect();

    // Timed closed loop. In a traced run, iterations alternate between
    // telemetry off and on, so both see the same machine state.
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_runs: Vec<Vec<(f64, ExecReport)>> = Vec::new();
    let min_iters = if ctx.trace { 2 * MIN_ITERS } else { MIN_ITERS };
    let start = Instant::now();
    let mut untimed_s = 0.0;
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() - untimed_s < ctx.seconds || i < min_iters {
        let on = ctx.trace && i % 2 == 1;
        i += 1;
        tally.attempted += progs.len() as u64;
        let (ms, runs) = match iterate(&progs, if on { &traced } else { &plain }) {
            Ok(r) => r,
            Err(e) => {
                tally.error(&e);
                continue;
            }
        };
        for ((_, rep), want) in runs.iter().zip(&reference) {
            if !check::bitwise(&rep.values, want) {
                tally.wrong("iteration result differs from the warm-up run");
            }
        }
        if on {
            traced_ms.push(ms);
            traced_runs.push(runs);
        } else {
            plain_ms.push(ms);
        }
        for _ in 0..SETUPS_PER_ITER {
            let secs = setup()?.1;
            untimed_s += secs;
            setups.push(secs);
        }
    }
    let peak_rss_mb = crate::peak_rss_mb();

    // Checks, outside the timed region: one thread reproduces the
    // reference bit for bit, the interpreter agrees on sampled slices,
    // and the native ceiling agrees within the envelope.
    let mut one_thread_ms = 0.0;
    let mut native_ms = Vec::new();
    for ((k, p), want) in progs.iter().enumerate().zip(&reference) {
        tally.attempted += 3;
        let t = Instant::now();
        match flat_vm::run_compiled(&p.compiled.code, &p.inputs, &cfg(p, 1, false)) {
            Ok(rep) if check::bitwise(&rep.values, want) => {}
            Ok(_) => tally.wrong(&format!(
                "{}: 1 thread differs from {}",
                p.spec.name, ctx.threads
            )),
            Err(e) => tally.error(&e.0),
        }
        one_thread_ms += t.elapsed().as_secs_f64() * 1e3;
        match interp_check(p, want, data_seed(ctx.seed, k + 100)) {
            Ok(true) => {}
            Ok(false) => tally.wrong(&format!("{}: interpreter disagrees", p.spec.name)),
            Err(e) => tally.error(&e),
        }
        let reps = if ctx.trace { NATIVE_REPS } else { 1 };
        let mut times = Vec::with_capacity(reps);
        let mut agrees = true;
        for _ in 0..reps {
            let t = Instant::now();
            let out = native_run(p, ctx.threads)?;
            times.push(t.elapsed().as_secs_f64() * 1e3);
            agrees &= check::within_envelope(&out, want);
        }
        if !agrees {
            tally.wrong(&format!("{}: native ceiling disagrees", p.spec.name));
        }
        native_ms.push(median(&times));
    }

    let mut metrics = Vec::new();
    if !ctx.trace {
        metrics.push(Metric::new("setup_s", quantile(&setups, SETUP_QUANTILE)));
        metrics.push(Metric::new("run_ms_p50", median(&plain_ms)));
        metrics.push(Metric::new("run_ms_p90", quantile(&plain_ms, 0.9)));
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb));
    } else {
        let sources: Vec<(&str, &str)> = progs
            .iter()
            .map(|p| (p.spec.source, p.spec.entry))
            .collect();
        let medians = pipeline::layer_medians(&sources, LAYER_REPS)?;
        let thresholds: usize = progs
            .iter()
            .map(|p| p.compiled.flattened.thresholds.len())
            .sum();
        let instrs: usize = progs
            .iter()
            .map(|p| pipeline::instr_count(&p.compiled.code))
            .sum();
        metrics.extend(crate::compile_metrics(&medians, thresholds, instrs));

        let iter_ms = median(&traced_ms);
        // Per traced iteration: the programs' times over the iteration's.
        let recon_run_frac = median(
            &traced_runs
                .iter()
                .zip(&traced_ms)
                .map(|(runs, &ms)| ratio(runs.iter().map(|r| r.0).sum(), ms))
                .collect::<Vec<_>>(),
        );
        for (k, p) in progs.iter().enumerate() {
            let ms = median(&traced_runs.iter().map(|r| r[k].0).collect::<Vec<_>>());
            metrics.push(Metric::new(&format!("vm.run_ms.{}", p.spec.name), ms));
            metrics.push(Metric::new(
                &format!("native.{}_ms", p.spec.name),
                native_ms[k],
            ));
            metrics.push(Metric::new(
                &format!("vm.over_native.{}", p.spec.name),
                ratio(ms, native_ms[k]),
            ));
        }
        let telems: Vec<Telem> = traced_runs.iter().map(|r| telem_of(r)).collect();
        let pick = |f: fn(&Telem) -> f64| median(&telems.iter().map(f).collect::<Vec<_>>());
        let tasks = pick(|t| t.tasks);
        metrics.extend([
            Metric::new("vm.kernel_ms", pick(|t| t.kernel_ms)),
            Metric::new("vm.host_ms", pick(|t| t.host_ms)),
            Metric::new("vm.launches", pick(|t| t.launches)),
            Metric::new("pool.tasks", tasks),
            Metric::new("pool.steal_frac", ratio(pick(|t| t.steals), tasks)),
            Metric::new(
                "pool.steal_fail_frac",
                ratio(pick(|t| t.steal_fails), pick(|t| t.steal_fails + t.steals)),
            ),
            Metric::new("pool.parks", pick(|t| t.parks)),
            Metric::new("pool.busy_frac", pick(|t| t.busy_frac)),
            Metric::new("pool.speedup", ratio(one_thread_ms, median(&plain_ms))),
            Metric::new(
                "trace.overhead_frac",
                ratio(iter_ms, median(&plain_ms)) - 1.0,
            ),
            Metric::new("recon.run_frac", recon_run_frac),
        ]);
    }
    notes.push(format!(
        "{} timed iterations ({} traced), {} set-ups",
        plain_ms.len(),
        traced_ms.len(),
        setups.len()
    ));
    Ok(Outcome {
        tally,
        metrics,
        inputs_hash: check::fingerprint(progs.iter().flat_map(|p| &p.inputs)),
        args: progs
            .iter()
            .flat_map(|p| p.spec.args.iter().cloned())
            .collect(),
        sources: progs.iter().map(|p| p.spec.source.to_string()).collect(),
        notes,
        probe_attempted: 0,
        probe_failed: 0,
    })
}

/// The live threshold path of a run of `p`, by threshold name.
fn path_names(p: &Prepared, rep: &ExecReport) -> String {
    let names: Vec<String> = rep
        .signature()
        .iter()
        .map(|&(id, taken)| {
            let name = p
                .compiled
                .flattened
                .thresholds
                .iter()
                .find(|i| i.id.0 == id)
                .map_or_else(|| format!("t{id}"), |i| i.name.clone());
            format!("{name}={taken}")
        })
        .collect();
    names.join(" ")
}
