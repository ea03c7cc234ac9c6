//! hostbench: a layered wall-clock benchmark of the host path
//! `flat-lang` → `incflat` → `flat-vm` → `workpool` → `flatd`.
//!
//! ```text
//! hostbench --workload <kernels-intra|kernels-flat|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. A run measures for
//! `--seconds`, checks every output, prints one line per metric and a
//! provenance record, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones ([`END_TO_END`]); with `--trace 1` they are the
//! per-layer ones ([`PER_LAYER`]), timed from outside around calls into
//! each layer's public functions. See README.md for the workloads and
//! for which layer metric should move which end-to-end metric.

mod check;
mod kernels;
mod native;
mod pipeline;
mod serve;
mod stats;

use flat_obs::json::{self, Value as Json};

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.elab_ms", "ms"),
    ("incflat.flatten_ms", "ms"),
    ("incflat.thresholds", "count"),
    ("vm.lower_ms", "ms"),
    ("vm.instrs", "count"),
    ("flatd.compile_ms", "ms"),
    ("recon.compile_frac", "ratio"),
    ("vm.run_ms.matmul", "ms"),
    ("vm.run_ms.locvolcalib", "ms"),
    ("native.matmul_ms", "ms"),
    ("native.locvolcalib_ms", "ms"),
    ("vm.over_native.matmul", "x"),
    ("vm.over_native.locvolcalib", "x"),
    ("vm.kernel_ms", "ms"),
    ("vm.host_ms", "ms"),
    ("vm.launches", "count"),
    ("recon.run_frac", "ratio"),
    ("pool.tasks", "count"),
    ("pool.steal_frac", "ratio"),
    ("pool.steal_fail_frac", "ratio"),
    ("pool.parks", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.speedup", "x"),
    ("flatd.hit_frac", "ratio"),
    ("flatd.exec_local_ms", "ms"),
    ("flatd.overhead_ms_p50", "ms"),
    ("flatd.encode_ms", "ms"),
    ("flatd.decode_ms", "ms"),
    ("flatd.queue_depth_max", "count"),
    ("flatd.rejected", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("lat_ms_p50.lo", "ms"),
    ("lat_ms_p99.lo", "ms"),
    ("lat_ms_p50.hi", "ms"),
    ("lat_ms_p99.hi", "ms"),
    ("miss_lat_ms_p50", "ms"),
    ("max_rate_rps", "1/s"),
    ("probe.zero_extent_failed", "count"),
    ("fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Stated reconciliation tolerances: how far each `recon.*` ratio may
/// stray from 1 before the traced run fails (see README.md).
pub const RECONCILE: &[(&str, f64)] = &[("recon.compile_frac", 0.20), ("recon.run_frac", 0.05)];

/// Workload-independent settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Pool threads and client connections: the host's parallelism.
    pub threads: usize,
}

/// One measured value; its unit comes from [`END_TO_END`] or
/// [`PER_LAYER`].
pub struct Metric {
    pub name: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
        }
    }
}

/// Operations attempted, failed (errors, refusals and wrong outputs),
/// and wrong outputs among the failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn error(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("hostbench: error: {what}");
    }

    pub fn wrong(&mut self, what: &str) {
        self.failed += 1;
        self.wrong += 1;
        eprintln!("hostbench: wrong output: {what}");
    }
}

/// What a workload measured.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// FNV-1a of every generated input value.
    pub inputs_hash: u64,
    /// Argument specs and program sources, for the provenance record.
    pub args: Vec<String>,
    pub sources: Vec<String>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Zero-extent probe requests attempted and failed. They count in
    /// `fail_frac` but not in `tally` (see README.md).
    pub probe_attempted: u64,
    pub probe_failed: u64,
}

/// The compile-layer metrics shared by every workload.
pub fn compile_metrics(
    medians: &pipeline::LayerMedians,
    thresholds: usize,
    instrs: usize,
) -> Vec<Metric> {
    let layers = &medians.layers;
    vec![
        Metric::new("lang.parse_ms", layers.parse_ms),
        Metric::new("lang.elab_ms", layers.elab_ms),
        Metric::new("incflat.flatten_ms", layers.flatten_ms),
        Metric::new("incflat.thresholds", thresholds as f64),
        Metric::new("vm.lower_ms", layers.lower_ms),
        Metric::new("vm.instrs", instrs as f64),
        Metric::new("flatd.compile_ms", medians.daemon_ms),
        Metric::new(
            "recon.compile_frac",
            stats::ratio(medians.total_ms, medians.daemon_ms),
        ),
    ]
}

/// Checks every `recon.*` ratio the workload measured against its
/// stated tolerance; one outside it is a failed operation.
fn reconcile(out: &mut Outcome) {
    for &(name, tol) in RECONCILE {
        let Some(value) = out.metrics.iter().find(|m| m.name == name).map(|m| m.value) else {
            continue;
        };
        out.tally.attempted += 1;
        if (value - 1.0).abs() > tol {
            out.tally.error(&format!(
                "reconciliation: {name} = {value:.4}, outside 1 ± {tol}"
            ));
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            threads,
        },
    })
}

/// The provenance record: `flat-perf`'s `RunRecord` fields where they
/// fit, plus the seed, input fingerprint and host description.
fn provenance(workload: &str, ctx: &Ctx, out: &Outcome, metrics: &[(&str, f64, &str)]) -> Json {
    let mut rec = flat_perf::RunRecord {
        kind: "hostbench".to_string(),
        program: workload.to_string(),
        source_hash: flat_perf::content_hash(&out.sources.concat()),
        backend: "vm".to_string(),
        device: "host".to_string(),
        threads: Some(ctx.threads),
        grain: Some(flat_exec::DEFAULT_GRAIN),
        args: out.args.clone(),
        entries: metrics
            .iter()
            .map(|&(name, value, _)| flat_perf::ArchivedEntry {
                key: name.to_string(),
                cycles: value,
            })
            .collect(),
        ..flat_perf::RunRecord::default()
    };
    flat_perf::stamp(&mut rec);
    Json::object(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(ctx.seed)),
        (
            "inputs_fnv1a",
            Json::from(format!("{:016x}", out.inputs_hash)),
        ),
        (
            "git_rev",
            Json::from(rec.git_rev.clone().unwrap_or_else(|| "unknown".into())),
        ),
        ("version", Json::from(rec.version.as_str())),
        ("nproc", Json::from(ctx.threads)),
        ("cpu", Json::from(cpu_model())),
        ("grain", Json::from(flat_exec::DEFAULT_GRAIN)),
        ("trace", Json::from(ctx.trace)),
        ("record", Json::from(rec.to_json_line())),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <kernels-intra|kernels-flat|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    let result = match args.workload.as_str() {
        "kernels-intra" => kernels::run(kernels::Shape::Intra, ctx),
        "kernels-flat" => kernels::run(kernels::Shape::Flat, ctx),
        "serve-mixed" => serve::run(ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    if ctx.trace {
        reconcile(&mut out);
        let t = &out.tally;
        let fail_frac = stats::ratio(
            (t.failed + out.probe_failed) as f64,
            (t.attempted + out.probe_attempted) as f64,
        );
        out.metrics.push(Metric::new("fail_frac", fail_frac));
    }

    // Report exactly the contract's metric list, in its order.
    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match out.metrics.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.swap_remove(i).value,
            None if ctx.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        metrics.push((name, value, unit));
    }
    assert!(
        out.metrics.is_empty(),
        "unlisted metric {}",
        out.metrics.first().map_or("", |m| m.name.as_str())
    );

    for n in &out.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let prov = provenance(&args.workload, ctx, &out, &metrics);
    println!(
        "provenance {}",
        json::to_string(&prov).expect("provenance serializes")
    );
    let t = &out.tally;
    let result = Json::object(vec![
        ("correct", Json::from(t.wrong == 0)),
        ("attempted", Json::from(t.attempted)),
        ("failed", Json::from(t.failed)),
        (
            "metrics",
            Json::object(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name,
                            Json::object(vec![
                                ("value", Json::from(value)),
                                ("unit", Json::from(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json::to_string(&result).expect("result serializes"));
}
