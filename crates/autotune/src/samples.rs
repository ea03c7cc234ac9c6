//! Live executor samples: the warm-start substrate for online,
//! shape-aware autotuning.
//!
//! `flatc exec --sample-log FILE` (backed by `flat-exec`'s telemetry)
//! appends one JSON object per dispatched kernel:
//!
//! ```json
//! {"program":"sumrows","kernel":"ys","kind":"segred",
//!  "shape_class":"2^4x2^16","space":1048576.0,
//!  "sig":"t0+","path":[[0,true]],
//!  "threads":4,"grain":256,"wall_ns":812345,"prov":3}
//! ```
//!
//! This module loads such logs back and *joins* them against a
//! program's branching tree ([`ThresholdRegistry`]): samples group by
//! path signature, each group checked for tree-consistency (the same
//! reachability rule the fuzz oracle enumerates), with per-group wall
//! time statistics keyed additionally by shape class. A future online
//! tuner (ROADMAP item 3) — or the `flatd` daemon (item 1) — can seed
//! its cost model from [`SampleJoin::warm_start`] instead of starting
//! from zero measurements.

use crate::cache::Signature;
use flat_obs::json::{self, Value};
use incflat::ThresholdRegistry;
use std::collections::BTreeMap;
use std::path::Path;

/// Sample-log line format version. Writers stamp it (`"schema":1`);
/// the loader skips lines stamped with any *other* version rather than
/// misreading them. Lines with no `schema` field predate versioning and
/// parse as version 1.
pub const SAMPLE_SCHEMA: u32 = 1;

/// One kernel dispatch observed by the live executor.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecSample {
    pub program: String,
    pub kernel: String,
    pub kind: String,
    /// Power-of-two shape bucket, e.g. `"2^4x2^16"` (see
    /// `flat_exec::shape_class`).
    pub shape_class: String,
    /// Total points of the kernel's iteration space.
    pub space: f64,
    /// Canonical threshold-path signature at dispatch time.
    pub sig: Signature,
    pub threads: usize,
    pub grain: usize,
    pub wall_ns: u64,
    /// Provenance id of the launching statement (0 = unknown).
    pub prov: u32,
}

fn field<'v>(v: &'v Value, name: &str, line: &str) -> Result<&'v Value, String> {
    v.get(name)
        .ok_or_else(|| format!("sample line missing '{name}': {line}"))
}

/// Parse one JSONL sample line. `Ok(None)` means the line is stamped
/// with a schema version this loader does not understand and should be
/// skipped (with a warning), not treated as corrupt.
pub fn parse_sample_versioned(line: &str) -> Result<Option<ExecSample>, String> {
    let v: Value = json::from_str(line).map_err(|e| format!("bad sample JSON: {e:?}: {line}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_u64)
        .map(|n| n as u32)
        .unwrap_or(SAMPLE_SCHEMA);
    if schema != SAMPLE_SCHEMA {
        return Ok(None);
    }
    parse_sample(line).map(Some)
}

/// Parse one JSONL sample line.
pub fn parse_sample(line: &str) -> Result<ExecSample, String> {
    let v: Value = json::from_str(line).map_err(|e| format!("bad sample JSON: {e:?}: {line}"))?;
    let s = |name: &str| -> Result<String, String> {
        Ok(field(&v, name, line)?
            .as_str()
            .ok_or_else(|| format!("sample field '{name}' is not a string: {line}"))?
            .to_string())
    };
    let n = |name: &str| -> Result<f64, String> {
        field(&v, name, line)?
            .as_f64()
            .ok_or_else(|| format!("sample field '{name}' is not a number: {line}"))
    };
    let mut sig: Signature = Vec::new();
    for entry in field(&v, "path", line)?
        .as_array()
        .ok_or_else(|| format!("sample field 'path' is not an array: {line}"))?
    {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("path entry is not an [id, taken] pair: {line}"))?;
        let id = pair[0]
            .as_u64()
            .ok_or_else(|| format!("path id is not an integer: {line}"))?;
        let taken = pair[1]
            .as_bool()
            .ok_or_else(|| format!("path outcome is not a bool: {line}"))?;
        sig.push((id as u32, taken));
    }
    sig.sort_unstable();
    sig.dedup();
    Ok(ExecSample {
        program: s("program")?,
        kernel: s("kernel")?,
        kind: s("kind")?,
        shape_class: s("shape_class")?,
        space: n("space")?,
        sig,
        threads: n("threads")? as usize,
        grain: n("grain")? as usize,
        wall_ns: n("wall_ns")? as u64,
        prov: n("prov")? as u32,
    })
}

/// Load a whole JSONL sample log. Blank lines are skipped; a line with
/// an unknown `schema` version is skipped with a warning collected into
/// the second return (a log written by a newer toolchain should degrade
/// gracefully); a malformed current-schema line is an error (a
/// truncated log should be noticed, not silently half-loaded).
pub fn load_sample_log_with_warnings(
    path: &Path,
) -> Result<(Vec<ExecSample>, Vec<String>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read sample log {}: {e}", path.display()))?;
    let mut samples = Vec::new();
    let mut warnings = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_sample_versioned(line).map_err(|e| format!("line {}: {e}", lineno + 1))? {
            Some(s) => samples.push(s),
            None => warnings.push(format!(
                "{}:{}: unknown sample schema version — line skipped",
                path.display(),
                lineno + 1
            )),
        }
    }
    Ok((samples, warnings))
}

/// [`load_sample_log_with_warnings`], with warnings printed to stderr.
pub fn load_sample_log(path: &Path) -> Result<Vec<ExecSample>, String> {
    let (samples, warnings) = load_sample_log_with_warnings(path)?;
    for w in warnings {
        eprintln!("warning: {w}");
    }
    Ok(samples)
}

/// Aggregated samples for one path signature.
#[derive(Clone, Debug)]
pub struct SignatureStats {
    pub sig: Signature,
    /// Whether the signature is consistent with the branching tree:
    /// every compared threshold exists and its ancestor guards were
    /// observed with the outcomes `ThresholdRegistry` requires.
    pub in_tree: bool,
    pub count: usize,
    pub median_wall_ns: f64,
    pub total_wall_ns: u64,
    /// Sample counts per shape class, so a shape-aware tuner can tell
    /// which regimes this path has actually been observed in.
    pub shape_classes: BTreeMap<String, usize>,
}

/// The result of joining a sample log against one program's tree.
#[derive(Clone, Debug)]
pub struct SampleJoin {
    /// One entry per distinct signature, in first-seen order.
    pub per_signature: Vec<SignatureStats>,
    pub samples: usize,
}

impl SampleJoin {
    pub fn stats_for(&self, sig: &Signature) -> Option<&SignatureStats> {
        self.per_signature.iter().find(|s| &s.sig == sig)
    }

    /// `(signature, median wall ns)` for every tree-consistent
    /// signature — a ready-made seed for a path-keyed cost cache.
    pub fn warm_start(&self) -> Vec<(Signature, f64)> {
        self.per_signature
            .iter()
            .filter(|s| s.in_tree)
            .map(|s| (s.sig.clone(), s.median_wall_ns))
            .collect()
    }
}

/// Reconstruct a threshold assignment that forces an observed
/// signature: `taken` guards (`Par(..) >= t` held) get the minimum
/// threshold, not-taken ones an unreachably large one; thresholds not
/// on the signature's path keep the compiler default. Paired with
/// [`SampleJoin::warm_start`]'s best signature this is a ready-made
/// incumbent for `StochasticTuner::start` — e.g. `flatd` seeding a tune
/// request from the sample log of earlier exec requests.
pub fn thresholds_for_signature(sig: &Signature) -> flat_ir::interp::Thresholds {
    let mut t = flat_ir::interp::Thresholds::new();
    for &(id, taken) in sig {
        t.set(flat_ir::ast::ThresholdId(id), if taken { 1 } else { i64::MAX });
    }
    t
}

/// Group `samples` by path signature and join each group against the
/// registry's branching tree.
pub fn join_samples(reg: &ThresholdRegistry, samples: &[ExecSample]) -> SampleJoin {
    let mut order: Vec<Signature> = Vec::new();
    let mut groups: BTreeMap<Signature, Vec<&ExecSample>> = BTreeMap::new();
    for s in samples {
        if !groups.contains_key(&s.sig) {
            order.push(s.sig.clone());
        }
        groups.entry(s.sig.clone()).or_default().push(s);
    }
    let per_signature = order
        .into_iter()
        .map(|sig| {
            let group = &groups[&sig];
            let mut walls: Vec<f64> = group.iter().map(|s| s.wall_ns as f64).collect();
            walls.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
            let median_wall_ns = if walls.len() % 2 == 1 {
                walls[walls.len() / 2]
            } else {
                (walls[walls.len() / 2 - 1] + walls[walls.len() / 2]) / 2.0
            };
            let mut shape_classes: BTreeMap<String, usize> = BTreeMap::new();
            for s in group {
                *shape_classes.entry(s.shape_class.clone()).or_default() += 1;
            }
            SignatureStats {
                in_tree: reg.path_in_tree(&sig),
                count: group.len(),
                median_wall_ns,
                total_wall_ns: group.iter().map(|s| s.wall_ns).sum(),
                shape_classes,
                sig,
            }
        })
        .collect();
    SampleJoin {
        per_signature,
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incflat::ThresholdKind;

    fn sample_line(sig: &str, path: &str, wall: u64, shape: &str) -> String {
        format!(
            "{{\"program\":\"p\",\"kernel\":\"k\",\"kind\":\"segmap\",\
             \"shape_class\":\"{shape}\",\"space\":64.0,\"sig\":\"{sig}\",\
             \"path\":{path},\"threads\":4,\"grain\":256,\"wall_ns\":{wall},\"prov\":1}}"
        )
    }

    #[test]
    fn parse_round_trips_the_log_line() {
        let s = parse_sample(&sample_line("t0+ t1-", "[[0,true],[1,false]]", 500, "2^4")).unwrap();
        assert_eq!(s.program, "p");
        assert_eq!(s.sig, vec![(0, true), (1, false)]);
        assert_eq!(s.wall_ns, 500);
        assert_eq!(s.threads, 4);
        assert_eq!(s.shape_class, "2^4");
        assert!(parse_sample("{\"kernel\":\"k\"}").is_err());
        assert!(parse_sample("not json").is_err());
    }

    #[test]
    fn unknown_schema_lines_are_skipped_with_a_warning() {
        // No schema field: version 1 by convention. Explicit 1: parsed.
        // Unknown 99: skipped, not an error, not misread.
        let v1 = sample_line("t0+", "[[0,true]]", 100, "2^4");
        let explicit = v1.replacen('{', "{\"schema\":1,", 1);
        let future = v1.replacen('{', "{\"schema\":99,", 1);
        assert!(parse_sample_versioned(&v1).unwrap().is_some());
        assert!(parse_sample_versioned(&explicit).unwrap().is_some());
        assert_eq!(parse_sample_versioned(&future).unwrap(), None);
        assert!(parse_sample_versioned("not json").is_err());

        let path = std::env::temp_dir()
            .join(format!("autotune-schema-{}.jsonl", std::process::id()));
        std::fs::write(&path, [v1, future, explicit].join("\n")).unwrap();
        let (samples, warnings) = load_sample_log_with_warnings(&path).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("unknown sample schema"), "{}", warnings[0]);
        // The lenient path is what the plain loader uses too.
        assert_eq!(load_sample_log(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn join_groups_by_signature_and_checks_the_tree() {
        // Tree: t0 at the root, t1 reachable only under t0+.
        let mut reg = ThresholdRegistry::new();
        let t0 = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let _t1 = reg.fresh(ThresholdKind::SuffOuter, &[(t0, true)]);

        let lines = [
            sample_line("t0+ t1-", "[[0,true],[1,false]]", 100, "2^4"),
            sample_line("t0+ t1-", "[[0,true],[1,false]]", 300, "2^6"),
            sample_line("t0-", "[[0,false]]", 50, "2^2"),
            // Inconsistent: t1 observed without its ancestor t0+.
            sample_line("t1+", "[[1,true]]", 9, "2^2"),
        ];
        let dir = std::env::temp_dir().join(format!("autotune-samples-{}.jsonl", std::process::id()));
        std::fs::write(&dir, lines.join("\n")).unwrap();
        let samples = load_sample_log(&dir).unwrap();
        std::fs::remove_file(&dir).ok();
        assert_eq!(samples.len(), 4);

        let join = join_samples(&reg, &samples);
        assert_eq!(join.samples, 4);
        assert_eq!(join.per_signature.len(), 3);

        let both = join.stats_for(&vec![(0, true), (1, false)]).unwrap();
        assert!(both.in_tree);
        assert_eq!(both.count, 2);
        assert_eq!(both.median_wall_ns, 200.0);
        assert_eq!(both.total_wall_ns, 400);
        assert_eq!(both.shape_classes.len(), 2);

        let orphan = join.stats_for(&vec![(1, true)]).unwrap();
        assert!(!orphan.in_tree);

        // Warm start: only tree-consistent signatures survive.
        let warm = join.warm_start();
        assert_eq!(warm.len(), 2);
        assert!(warm.iter().all(|(sig, _)| sig != &vec![(1, true)]));
    }
}
