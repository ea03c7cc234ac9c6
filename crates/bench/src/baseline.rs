//! Benchmark baselines and the regression gate.
//!
//! A *baseline* is a committed snapshot of the simulator's numbers for
//! every benchmark × dataset pair on a device: simulated cycles,
//! microseconds, and kernel count, keyed `"{bench}/{dataset}/{device}"`.
//! `flatc bench --write` measures and stores one under
//! `results/baseline/baseline.json`; `flatc bench --check` re-measures
//! and compares against it with a relative tolerance band, exiting
//! nonzero on regression — the CI gate that catches cost-model or
//! flattening changes that silently slow programs down.
//!
//! Measurements are deterministic (fixed default thresholds, incremental
//! flattening, abstract datasets), so the default tolerance mainly
//! absorbs *intentional* cost-model retunes; bump the baseline alongside
//! such changes with `--write`.

use flat_obs::json::{self, ToJson, Value};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Per-repetition spread of a wall-clock measurement. Simulated entries
/// have none (the simulator is exact); vm entries record how noisy
/// the median headline number was, so a regression report can be read
/// against the measurement's own variance.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStats {
    pub runs: u64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub stddev: f64,
}

impl ToJson for RunStats {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("runs", Value::from(self.runs as i64)),
            ("min", Value::from(self.min)),
            ("max", Value::from(self.max)),
            ("mean", Value::from(self.mean)),
            ("stddev", Value::from(self.stddev)),
        ])
    }
}

impl RunStats {
    pub fn of_measurement(m: &flat_exec::Measurement) -> RunStats {
        RunStats {
            runs: m.runs.len() as u64,
            min: m.min_nanos,
            max: m.max_nanos,
            mean: m.mean_nanos,
            stddev: m.stddev_nanos,
        }
    }
}

/// One measured benchmark × dataset × device point.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// `"{bench}/{dataset}/{device}"`.
    pub key: String,
    pub cycles: f64,
    pub microseconds: f64,
    pub kernels: u64,
    /// Which backend produced the numbers: `"sim"` (simulated cycles)
    /// or `"vm"` (measured wall-clock nanoseconds as "cycles"; older
    /// baselines may also say `"exec"`, a retired backend).
    /// Comparing across backends is meaningless, so `--check` refuses.
    pub backend: String,
    /// Per-rep spread, recorded by wall-clock backends; `None` for
    /// simulated entries (and baselines written before it existed).
    pub stats: Option<RunStats>,
}

impl ToJson for BaselineEntry {
    fn to_json(&self) -> Value {
        let mut v = Value::object(vec![
            ("key", Value::from(self.key.as_str())),
            ("cycles", Value::from(self.cycles)),
            ("microseconds", Value::from(self.microseconds)),
            ("kernels", Value::from(self.kernels as i64)),
            ("backend", Value::from(self.backend.as_str())),
        ]);
        if let Some(s) = &self.stats {
            v.insert("stats", s.to_json());
        }
        v
    }
}

/// The git revision the toolchain was run from, if the working
/// directory is a checkout with `git` on PATH. Recorded into baselines
/// and perf-archive records so a number can be traced to the code that
/// produced it.
pub fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        None
    } else {
        Some(rev)
    }
}

/// The `flatc` version string recorded alongside measurements.
pub fn version_string() -> String {
    format!("flatc {}", env!("CARGO_PKG_VERSION"))
}

/// A set of baseline entries in deterministic (suite) order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
    /// Git revision of the toolchain that measured this baseline.
    /// `None` in baselines written before the field existed, or when
    /// measured outside a git checkout.
    pub git_rev: Option<String>,
    /// `flatc` version string of the measuring toolchain; `None` in
    /// pre-existing baselines.
    pub version: Option<String>,
}

impl Baseline {
    pub fn get(&self, key: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Stamp the measuring toolchain's provenance onto the baseline.
    pub fn stamped(mut self) -> Baseline {
        self.git_rev = git_rev();
        self.version = Some(version_string());
        self
    }

    pub fn to_json(&self) -> Value {
        let mut v = Value::object(vec![(
            "entries",
            Value::Array(self.entries.iter().map(ToJson::to_json).collect()),
        )]);
        if let Some(r) = &self.git_rev {
            v.insert("git_rev", Value::from(r.as_str()));
        }
        if let Some(ver) = &self.version {
            v.insert("version", Value::from(ver.as_str()));
        }
        v
    }

    pub fn from_json(v: &Value) -> Result<Baseline, String> {
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("baseline: missing `entries` array")?;
        let mut out = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let field = |name: &str| {
                e.get(name)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("baseline entry {i}: missing numeric `{name}`"))
            };
            out.push(BaselineEntry {
                key: e
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("baseline entry {i}: missing `key`"))?
                    .to_string(),
                cycles: field("cycles")?,
                microseconds: field("microseconds")?,
                kernels: field("kernels")? as u64,
                // Baselines written before wall-clock backends existed
                // carry no backend field; they were all simulated.
                backend: e
                    .get("backend")
                    .and_then(Value::as_str)
                    .unwrap_or("sim")
                    .to_string(),
                stats: match e.get("stats") {
                    None => None,
                    Some(s) => {
                        let sf = |name: &str| {
                            s.get(name).and_then(Value::as_f64).ok_or_else(|| {
                                format!("baseline entry {i}: stats missing numeric `{name}`")
                            })
                        };
                        Some(RunStats {
                            runs: sf("runs")? as u64,
                            min: sf("min")?,
                            max: sf("max")?,
                            mean: sf("mean")?,
                            stddev: sf("stddev")?,
                        })
                    }
                },
            });
        }
        Ok(Baseline {
            entries: out,
            // Absent from baselines written before provenance stamping.
            git_rev: v.get("git_rev").and_then(Value::as_str).map(str::to_string),
            version: v.get("version").and_then(Value::as_str).map(str::to_string),
        })
    }

    /// Write pretty JSON to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let text = json::to_string_pretty(&self.to_json())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(path, text)
    }

    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = fs::read_to_string(path)?;
        let v: Value = json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Baseline::from_json(&v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Measure the whole suite on `dev` under incremental flattening and
/// default thresholds. Deterministic: same toolchain, same numbers.
pub fn measure_suite(dev: &gpu_sim::DeviceSpec) -> Baseline {
    let t = flat_ir::interp::Thresholds::new();
    let cfg = incflat::FlattenConfig::incremental();
    let mut entries = Vec::new();
    for b in benchmarks::all_benchmarks() {
        let fl = b.flatten(&cfg);
        for d in &b.datasets {
            let rep = gpu_sim::simulate(&fl.prog, &d.args, &t, dev)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", b.name, d.name));
            entries.push(BaselineEntry {
                key: format!("{}/{}/{}", b.name, d.name, dev.name),
                cycles: rep.cost.total_cycles,
                microseconds: dev.cycles_to_us(rep.cost.total_cycles),
                kernels: rep.kernels.len() as u64,
                backend: "sim".to_string(),
                stats: None,
            });
        }
    }
    Baseline { entries, ..Baseline::default() }.stamped()
}

/// Measure the whole suite by *real execution* on host threads with the
/// bytecode VM (`flat_vm::measure`, which compiles each program once
/// outside the timed region), timing each benchmark's small
/// semantics-testing arguments (the Table 1 datasets are sized for
/// simulated GPUs). Keys use the `"{bench}/test/host"` form and entries
/// carry backend `"vm"`, so `compare` refuses to diff them against
/// simulated baselines.
pub fn measure_suite_vm(threads: Option<usize>, reps: usize, warmup: usize) -> Baseline {
    use rand::SeedableRng as _;
    let t = flat_ir::interp::Thresholds::new();
    let cfg = incflat::FlattenConfig::incremental();
    let mut entries = Vec::new();
    for b in benchmarks::all_benchmarks() {
        let fl = b.flatten(&cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1A7);
        let args = (b.test_args)(&mut rng);
        let exec_cfg = flat_exec::ExecConfig {
            thresholds: t.clone(),
            threads,
            ..flat_exec::ExecConfig::default()
        };
        let (rep, m) = flat_vm::measure(&fl.prog, &args, &exec_cfg, reps, warmup)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        entries.push(BaselineEntry {
            key: format!("{}/test/host", b.name),
            cycles: m.median_nanos,
            microseconds: m.median_nanos / 1_000.0,
            kernels: rep.launches.len() as u64,
            backend: "vm".to_string(),
            stats: Some(RunStats::of_measurement(&m)),
        });
    }
    Baseline { entries, ..Baseline::default() }.stamped()
}

/// The single backend all entries agree on, or an error naming the
/// mixture. An empty baseline counts as `"sim"`.
pub fn backend_of(b: &Baseline) -> Result<&str, String> {
    let first = b.entries.first().map(|e| e.backend.as_str()).unwrap_or("sim");
    for e in &b.entries {
        if e.backend != first {
            return Err(format!(
                "baseline mixes backends: `{first}` and `{}` (entry {})",
                e.backend, e.key
            ));
        }
    }
    Ok(first)
}

/// Refuse to compare measurements from different backends: simulated
/// cycles and wall-clock nanoseconds are not commensurable.
pub fn check_same_backend(base: &Baseline, current: &Baseline) -> Result<(), String> {
    let b = backend_of(base)?;
    let c = backend_of(current)?;
    if b != c {
        return Err(format!(
            "cannot compare across backends: baseline was measured with `{b}`, \
             current measurement with `{c}` — re-record the baseline with \
             `flatc bench --write --backend {c}`"
        ));
    }
    Ok(())
}

/// One point's deviation from its baseline.
#[derive(Clone, Debug)]
pub struct Delta {
    pub key: String,
    pub base_cycles: f64,
    pub cur_cycles: f64,
    /// Signed relative change in percent; positive = slower.
    pub pct: f64,
}

/// The outcome of comparing a fresh measurement against a baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Points slower than baseline by more than the tolerance.
    pub regressions: Vec<Delta>,
    /// Points faster than baseline by more than the tolerance.
    pub improvements: Vec<Delta>,
    /// Points within the tolerance band.
    pub within: usize,
    /// Baseline keys absent from the fresh measurement.
    pub missing: Vec<String>,
    /// Freshly measured keys absent from the baseline.
    pub new: Vec<String>,
}

impl Comparison {
    /// `--check` gates on this: a regression, or a benchmark that
    /// disappeared, fails the build. New (unbaselined) points do not.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }
}

/// Compare `current` against `base` with a relative tolerance in
/// percent (e.g. `2.0` = ±2%).
pub fn compare(base: &Baseline, current: &Baseline, tolerance_pct: f64) -> Comparison {
    let mut cmp = Comparison::default();
    for b in &base.entries {
        match current.get(&b.key) {
            None => cmp.missing.push(b.key.clone()),
            Some(c) => {
                let pct = if b.cycles > 0.0 {
                    (c.cycles - b.cycles) / b.cycles * 100.0
                } else if c.cycles > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let d = Delta {
                    key: b.key.clone(),
                    base_cycles: b.cycles,
                    cur_cycles: c.cycles,
                    pct,
                };
                if pct > tolerance_pct {
                    cmp.regressions.push(d);
                } else if pct < -tolerance_pct {
                    cmp.improvements.push(d);
                } else {
                    cmp.within += 1;
                }
            }
        }
    }
    for c in &current.entries {
        if base.get(&c.key).is_none() {
            cmp.new.push(c.key.clone());
        }
    }
    cmp
}

/// Human-readable comparison report (the `flatc bench --check` output).
pub fn render_comparison(cmp: &Comparison, tolerance_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline check (tolerance ±{tolerance_pct}%): {} within, {} regressed, {} improved, {} missing, {} new",
        cmp.within,
        cmp.regressions.len(),
        cmp.improvements.len(),
        cmp.missing.len(),
        cmp.new.len(),
    );
    for d in &cmp.regressions {
        let _ = writeln!(
            out,
            "  REGRESSED {:<40} {:>14.0} -> {:>14.0} cycles ({:+.2}%)",
            d.key, d.base_cycles, d.cur_cycles, d.pct
        );
    }
    for d in &cmp.improvements {
        let _ = writeln!(
            out,
            "  improved  {:<40} {:>14.0} -> {:>14.0} cycles ({:+.2}%)",
            d.key, d.base_cycles, d.cur_cycles, d.pct
        );
    }
    for k in &cmp.missing {
        let _ = writeln!(out, "  MISSING   {k} (in baseline, not measured)");
    }
    for k in &cmp.new {
        let _ = writeln!(out, "  new       {k} (not in baseline; run --write to record)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, cycles: f64) -> BaselineEntry {
        BaselineEntry {
            key: key.to_string(),
            cycles,
            microseconds: cycles / 745.0,
            kernels: 3,
            backend: "sim".to_string(),
            stats: None,
        }
    }

    #[test]
    fn json_round_trip() {
        let mut with_stats = entry("m/d1/K40", 9.0);
        with_stats.backend = "vm".to_string();
        with_stats.stats = Some(RunStats {
            runs: 5,
            min: 8.0,
            max: 11.0,
            mean: 9.2,
            stddev: 1.1,
        });
        let b = Baseline { entries: vec![entry("m/d0/K40", 1234.5), with_stats], ..Baseline::default() }.stamped();
        let text = json::to_string_pretty(&b.to_json()).unwrap();
        let back = Baseline::from_json(&json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("flat_bench_baseline_test");
        let path = dir.join("nested").join("baseline.json");
        let b = Baseline { entries: vec![entry("m/d0/K40", 42.0)], ..Baseline::default() };
        b.write(&path).unwrap();
        let back = Baseline::load(&path).unwrap();
        assert_eq!(back, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(Baseline::from_json(&json::from_str("{}").unwrap()).is_err());
        assert!(Baseline::from_json(
            &json::from_str(r#"{"entries": [{"cycles": 1.0}]}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn comparison_classifies_within_regressed_improved() {
        let base = Baseline {
            entries: vec![entry("a", 100.0), entry("b", 100.0), entry("c", 100.0), entry("gone", 5.0)],
            ..Baseline::default()
        };
        let cur = Baseline {
            entries: vec![entry("a", 101.0), entry("b", 110.0), entry("c", 80.0), entry("fresh", 7.0)],
            ..Baseline::default()
        };
        let cmp = compare(&base, &cur, 2.0);
        assert_eq!(cmp.within, 1);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].key, "b");
        assert!((cmp.regressions[0].pct - 10.0).abs() < 1e-9);
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.improvements[0].key, "c");
        assert_eq!(cmp.missing, vec!["gone".to_string()]);
        assert_eq!(cmp.new, vec!["fresh".to_string()]);
        assert!(cmp.failed());
        let text = render_comparison(&cmp, 2.0);
        assert!(text.contains("REGRESSED b"));
        assert!(text.contains("improved  c"));
    }

    #[test]
    fn identical_measurements_pass() {
        let base = Baseline { entries: vec![entry("a", 100.0), entry("z", 0.0)], ..Baseline::default() };
        let cmp = compare(&base, &base, 0.0);
        assert_eq!(cmp.within, 2);
        assert!(!cmp.failed());
    }

    #[test]
    fn baseline_without_backend_field_defaults_to_sim() {
        let text = r#"{"entries": [{"key": "a/b/c", "cycles": 1.0,
                       "microseconds": 0.1, "kernels": 2}]}"#;
        let b = Baseline::from_json(&json::from_str(text).unwrap()).unwrap();
        assert_eq!(b.entries[0].backend, "sim");
    }

    #[test]
    fn cross_backend_comparison_is_refused() {
        let sim = Baseline { entries: vec![entry("a", 100.0)], ..Baseline::default() };
        let mut wall = entry("a", 5_000.0);
        wall.backend = "vm".to_string();
        let vm = Baseline { entries: vec![wall], ..Baseline::default() };
        assert!(check_same_backend(&sim, &sim).is_ok());
        assert!(check_same_backend(&vm, &vm).is_ok());
        let err = check_same_backend(&sim, &vm).unwrap_err();
        assert!(err.contains("cannot compare across backends"), "{err}");
        assert!(err.contains("`sim`") && err.contains("`vm`"), "{err}");
        // A baseline that internally mixes backends is also rejected.
        let mixed = Baseline {
            entries: vec![entry("a", 1.0), {
                let mut e = entry("b", 2.0);
                e.backend = "vm".into();
                e
            }],
            ..Baseline::default()
        };
        assert!(backend_of(&mixed).is_err());
    }

    #[test]
    fn vm_suite_measurement_has_vm_backend() {
        let b = measure_suite_vm(Some(2), 2, 0);
        assert!(!b.entries.is_empty());
        assert!(b.entries.iter().all(|e| e.backend == "vm"));
        assert!(b.entries.iter().all(|e| e.cycles > 0.0));
        assert_eq!(backend_of(&b).unwrap(), "vm");
        // Wall-clock entries carry their per-rep spread.
        for e in &b.entries {
            let s = e.stats.as_ref().expect("vm entry records run stats");
            assert_eq!(s.runs, 2);
            assert!(s.min <= e.cycles && e.cycles <= s.max, "{}", e.key);
            assert!(s.stddev >= 0.0);
        }
    }

    #[test]
    fn suite_measurement_is_deterministic_and_complete() {
        let dev = gpu_sim::DeviceSpec::k40();
        let a = measure_suite(&dev);
        let b = measure_suite(&dev);
        assert_eq!(a, b, "same toolchain, same numbers");
        let n_datasets: usize = benchmarks::all_benchmarks().iter().map(|b| b.datasets.len()).sum();
        assert_eq!(a.entries.len(), n_datasets);
        assert!(a.entries.iter().all(|e| e.cycles > 0.0 && e.kernels > 0));
        // Exact comparison against itself passes with zero tolerance.
        assert!(!compare(&a, &b, 0.0).failed());
    }
}
