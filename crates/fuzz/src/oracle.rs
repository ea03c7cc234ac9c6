//! The differential oracle: run one program through the whole pipeline
//! and check four-way agreement under *every* reachable threshold path.
//!
//! Legs of the comparison, all bitwise (`i64` wrapping arithmetic makes
//! flattening's reassociation exact):
//!
//! 1. **Source interpretation** — the independent evaluator in
//!    [`crate::eval`] applied to the parsed surface program.
//! 2. **Post-elaboration IR** — [`flat_ir::interp::run_program`] on the
//!    elaborated, type-checked program.
//! 3. **Post-fusion IR** — the same after [`flat_ir::fusion`].
//! 4. **Flattened versions** — for each flattening mode, the oracle
//!    walks the threshold branching tree, derives an assignment that
//!    *forces* every distinct version path (threshold `0` forces a
//!    guard to take its sufficient-parallelism branch, `i64::MAX`
//!    forces the other), and runs the multi-versioned program under
//!    each assignment. Every forced version must reproduce the source
//!    result exactly — the paper's central equivalence claim. The GPU
//!    simulator runs alongside each version and its recorded path must
//!    match the interpreter's ([`gpu_sim::sim::path_signature`]).
//!
//! Two further legs ride along: a static **verifier** pass after every
//! transformation (`verify: bool`), and **real execution** on the
//! bytecode VM (`vm: bool`) — `flat-vm` compiles each flattened version
//! and runs every forced path *and* the live-dispatched path on 2
//! threads with a tiny grain size (so even the fuzzer's small inputs
//! split into several parallel tasks); it must reproduce the reference
//! bitwise with a path signature the interpreter (forced) or the
//! threshold branching tree (live) agrees with.

use crate::eval::{self, V};
use flat_ir::interp::{Interp, Thresholds};
use flat_ir::value::{ArrayVal, Buffer};
use flat_ir::{ThresholdId, Value};
use flat_lang::syntax::{SDef, SProgram};
use gpu_sim::DeviceSpec;
use incflat::{FlattenConfig, ThresholdRegistry};
use rand::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Concrete inputs for the fixed fuzz signature
/// `main [n][m] (xss: [n][m]i64) (ys: [m]i64) (c: i64)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzInputs {
    pub n: i64,
    pub m: i64,
    pub xss: Vec<Vec<i64>>,
    pub ys: Vec<i64>,
    pub c: i64,
    /// Seed the data was derived from — recorded so corpus files can
    /// regenerate the exact inputs from their header alone.
    pub data_seed: u64,
}

impl FuzzInputs {
    /// Deterministically fill the inputs from sizes and a data seed
    /// (the recipe corpus files reference in their headers).
    pub fn from_seed(n: i64, m: i64, data_seed: u64) -> FuzzInputs {
        assert!(n >= 1 && m >= 1, "fuzz sizes must be positive");
        let mut rng = StdRng::seed_from_u64(data_seed);
        let xss = (0..n)
            .map(|_| (0..m).map(|_| rng.gen_range(-9i64..=9)).collect())
            .collect();
        let ys = (0..m).map(|_| rng.gen_range(-9i64..=9)).collect();
        let c = rng.gen_range(-4i64..=4);
        FuzzInputs { n, m, xss, ys, c, data_seed }
    }

    /// IR-level argument list: size binders first (as `i64`), then the
    /// declared parameters — the calling convention of
    /// [`flat_lang::compile`].
    pub fn ir_args(&self) -> Vec<Value> {
        let flat: Vec<i64> = self.xss.iter().flatten().copied().collect();
        vec![
            Value::i64_(self.n),
            Value::i64_(self.m),
            Value::Array(ArrayVal::new(vec![self.n, self.m], Buffer::I64(flat))),
            Value::i64_vec(self.ys.clone()),
            Value::i64_(self.c),
        ]
    }

    fn surface_args(&self) -> Vec<(String, V)> {
        let xv = V::Arr(
            self.xss
                .iter()
                .map(|r| V::Arr(r.iter().copied().map(V::I).collect()))
                .collect(),
        );
        let yv = V::Arr(self.ys.iter().copied().map(V::I).collect());
        vec![
            ("xss".into(), xv),
            ("ys".into(), yv),
            ("c".into(), V::I(self.c)),
        ]
    }
}

/// A classified oracle failure: which pipeline stage disagreed (or
/// died), and how.
#[derive(Clone, Debug)]
pub struct Failure {
    pub stage: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

/// What a clean oracle run established.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Distinct `path_signature`s observed while forcing versions of
    /// the *incremental* flattening (the branching tree under test).
    pub path_signatures: Vec<Vec<(u32, bool)>>,
    /// Total forced version runs across all modes.
    pub versions_checked: usize,
}

impl OracleReport {
    pub fn distinct_paths(&self) -> usize {
        self.path_signatures.len()
    }
}

/// A test hook mutating the elaborated IR before the downstream stages.
pub type ProgramMutation = Box<dyn Fn(&mut flat_ir::Program)>;

/// The differential oracle. `mutate_post_elab` is a test hook: it is
/// applied to the elaborated IR before the downstream stages, letting
/// tests prove the oracle catches a deliberately broken transformation.
pub struct Oracle {
    pub mutate_post_elab: Option<ProgramMutation>,
    /// Cap on enumerated threshold assignments per mode (the tree can
    /// be exponential in pathological nests).
    pub max_assignments: usize,
    /// Fifth leg: statically verify the IR after elaboration, fusion,
    /// and each flattening with `flat-verify` (error-severity
    /// diagnostics fail the oracle; warnings are ignored). On by
    /// default — interpretation checks *values*, this checks the IR
    /// invariants a lucky input might never exercise.
    pub verify: bool,
    /// Sixth leg: compile every flattened version to the `flat-vm`
    /// register bytecode, run every forced path and the live-dispatched
    /// path on real threads, and require bitwise agreement with the
    /// reference plus a consistent path signature. On by default.
    pub vm: bool,
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle::new()
    }
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            mutate_post_elab: None,
            max_assignments: 32,
            verify: true,
            vm: true,
        }
    }

    /// Run the full differential check on `src` with the given inputs.
    pub fn check(&self, src: &str, inputs: &FuzzInputs) -> Result<OracleReport, Failure> {
        let sprog = guard("parse", || {
            flat_lang::parse_program(src).map_err(|e| fail("parse", e))
        })?;
        let def = sprog
            .find("main")
            .ok_or_else(|| fail("parse", "no `main` definition"))?;
        check_signature(def)?;

        // Leg 1: independent source-level interpretation.
        let reference = guard("source-eval", || {
            let out = eval::eval_def(
                def,
                &[("n".into(), inputs.n), ("m".into(), inputs.m)],
                &inputs.surface_args(),
            )
            .map_err(|e| fail("source-eval", e))?;
            eval::to_values(&out).map_err(|e| fail("source-eval", e))
        })?;

        // Leg 2: elaborate (includes typechecking) and interpret the IR.
        let mut prog = guard("elaborate", || {
            flat_lang::compile_sprogram(&sprog, "main").map_err(|e| fail("elaborate", e))
        })?;
        if let Some(mutate) = &self.mutate_post_elab {
            mutate(&mut prog);
        }
        if self.verify {
            let p = &prog;
            guard("verify-elab", || {
                verify_clean("verify-elab", "", flat_verify::verify_program(p))
            })?;
        }
        let args = inputs.ir_args();
        let ir_out = guard("ir-eval", || {
            flat_ir::interp::run_program(&prog, &args, &Thresholds::new())
                .map_err(|e| fail("ir-eval", e.0))
        })?;
        if ir_out != reference {
            return Err(mismatch("source-vs-ir", &reference, &ir_out, ""));
        }

        // Leg 3: fusion must preserve both typing and semantics.
        let fused = guard("fusion", || {
            let mut fused = prog.clone();
            flat_ir::fusion::fuse_program(&mut fused);
            flat_ir::typecheck::check_source(&fused)
                .map_err(|e| fail("fusion", format!("fused program is ill-typed: {e}")))?;
            Ok(fused)
        })?;
        if self.verify {
            let p = &fused;
            guard("verify-fusion", || {
                verify_clean("verify-fusion", "", flat_verify::verify_program(p))
            })?;
        }
        let fused_out = guard("fusion-eval", || {
            flat_ir::interp::run_program(&fused, &args, &Thresholds::new())
                .map_err(|e| fail("fusion-eval", e.0))
        })?;
        if fused_out != reference {
            return Err(mismatch("fusion-vs-source", &reference, &fused_out, ""));
        }

        // Leg 4: flatten and force every version path.
        let mut report = OracleReport::default();
        let dev = DeviceSpec::k40();
        for cfg in [FlattenConfig::moderate(), FlattenConfig::incremental()] {
            let mode = if cfg.mode == incflat::FlattenMode::Incremental {
                "incremental"
            } else {
                "moderate"
            };
            let fl = guard("flatten", || {
                incflat::flatten(&fused, &cfg)
                    .map_err(|e| fail("flatten", format!("{mode}: {e}")))
            })?;
            if self.verify {
                let fl = &fl;
                guard("verify-flatten", || {
                    verify_clean("verify-flatten", mode, flat_verify::verify_flattened(fl))
                })?;
            }
            let assignments = fl.thresholds.enumerate_assignments(self.max_assignments);
            for asg in &assignments {
                let mut t = Thresholds::new();
                for (id, taken) in asg {
                    t.set(*id, if *taken { 0 } else { i64::MAX });
                }
                let ctx = || format!("{mode}, forced {}", render_assignment(asg));

                let (got, interp_path) = guard("version-run", || {
                    let mut interp = Interp::new(&t);
                    interp
                        .bind_args(&fl.prog, &args)
                        .map_err(|e| fail("version-run", format!("{}: {}", ctx(), e.0)))?;
                    let got = interp
                        .eval_body(&fl.prog.body)
                        .map_err(|e| fail("version-run", format!("{}: {}", ctx(), e.0)))?;
                    Ok((got, interp.path))
                })?;
                if got != reference {
                    return Err(mismatch("version-mismatch", &reference, &got, &ctx()));
                }
                report.versions_checked += 1;

                let isig = ThresholdRegistry::path_signature(&interp_path);
                // Every decision the run actually took must agree with
                // what the assignment forced (unreached guards are fine
                // — an `if` can skip a whole version region).
                for (id, taken) in &isig {
                    if let Some((_, forced)) = asg.iter().find(|(a, _)| a.0 == *id) {
                        if taken != forced {
                            return Err(fail(
                                "path-consistency",
                                format!(
                                    "{}: threshold {id} took {taken} against its forcing",
                                    ctx()
                                ),
                            ));
                        }
                    }
                }

                let sim = guard("simulate", || {
                    gpu_sim::sim::simulate_values(&fl.prog, &args, &t, &dev)
                        .map_err(|e| fail("simulate", format!("{}: {e}", ctx())))
                })?;
                let ssig = gpu_sim::sim::path_signature(&sim.path);
                if ssig != isig {
                    return Err(fail(
                        "sim-path",
                        format!("{}: simulator path {ssig:?} != interpreter path {isig:?}", ctx()),
                    ));
                }

                // Leg 6a: the bytecode VM under the same forcing, on 2
                // threads with a tiny grain so even small inputs split
                // into several parallel tasks.
                if self.vm {
                    let vrep = guard("vm-run", || {
                        flat_vm::run_program(&fl.prog, &args, &exec_config(&t))
                            .map_err(|e| fail("vm-run", format!("{}: {}", ctx(), e.0)))
                    })?;
                    if vrep.values != reference {
                        return Err(mismatch("vm-mismatch", &reference, &vrep.values, &ctx()));
                    }
                    let vsig = vrep.signature();
                    if vsig != isig {
                        return Err(fail(
                            "vm-path",
                            format!(
                                "{}: vm path {vsig:?} != interpreter path {isig:?}",
                                ctx()
                            ),
                        ));
                    }
                }

                if mode == "incremental" {
                    push_distinct(&mut report.path_signatures, isig);
                }
            }

            // Leg 6b: live dispatch — no forcing, the default threshold
            // assignment decides against the actual `Par(...)` degrees.
            // The taken path must be one the branching tree admits.
            if self.vm {
                let live = guard("vm-live", || {
                    flat_vm::run_program(&fl.prog, &args, &exec_config(&Thresholds::new()))
                        .map_err(|e| fail("vm-live", format!("{mode}: {}", e.0)))
                })?;
                if live.values != reference {
                    return Err(mismatch("vm-live-mismatch", &reference, &live.values, mode));
                }
                let lsig = live.signature();
                if !fl.thresholds.path_in_tree(&lsig) {
                    return Err(fail(
                        "vm-live-path",
                        format!("{mode}: vm live-dispatched path {lsig:?} is not in the threshold tree"),
                    ));
                }
            }
        }
        Ok(report)
    }
}

/// VM configuration for the oracle's execution leg: 2 threads
/// exercises real cross-thread scheduling, grain 4 forces multi-task
/// decomposition even on the fuzzer's small inputs.
fn exec_config(t: &Thresholds) -> flat_exec::ExecConfig {
    flat_exec::ExecConfig {
        thresholds: t.clone(),
        threads: Some(2),
        grain: 4,
        ..flat_exec::ExecConfig::default()
    }
}

fn check_signature(def: &SDef) -> Result<(), Failure> {
    let shape_ok = def.size_binders == ["n", "m"]
        && def.params.len() == 3
        && def.params[0].0 == "xss"
        && def.params[1].0 == "ys"
        && def.params[2].0 == "c";
    if shape_ok {
        Ok(())
    } else {
        Err(fail(
            "signature",
            "fuzz oracle requires `def main [n][m] (xss: [n][m]i64) (ys: [m]i64) (c: i64)`",
        ))
    }
}

fn fail(stage: &'static str, detail: impl ToString) -> Failure {
    Failure { stage, detail: detail.to_string() }
}

/// The verifier leg: error-severity diagnostics fail the oracle
/// (warnings flag suspicious but semantics-preserving code and would
/// make the campaign flaky on healthy generator output).
fn verify_clean(
    stage: &'static str,
    ctx: &str,
    diags: Vec<flat_verify::Diagnostic>,
) -> Result<(), Failure> {
    let errors: Vec<&flat_verify::Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
    match errors.first() {
        None => Ok(()),
        Some(first) => {
            let sep = if ctx.is_empty() { "" } else { ": " };
            Err(fail(
                stage,
                format!("{ctx}{sep}{} ({} error diagnostics)", first.render(stage), errors.len()),
            ))
        }
    }
}

fn mismatch(stage: &'static str, want: &[Value], got: &[Value], ctx: &str) -> Failure {
    let sep = if ctx.is_empty() { "" } else { ": " };
    fail(stage, format!("{ctx}{sep}expected {want:?}, got {got:?}"))
}

/// Run `f`, converting a panic anywhere in the stage into a classified
/// [`Failure`] instead of aborting the fuzz campaign.
fn guard<T>(
    stage: &'static str,
    f: impl FnOnce() -> Result<T, Failure>,
) -> Result<T, Failure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(fail(stage, format!("panicked: {msg}")))
        }
    }
}

fn push_distinct(sigs: &mut Vec<Vec<(u32, bool)>>, sig: Vec<(u32, bool)>) {
    if !sigs.contains(&sig) {
        sigs.push(sig);
    }
}

fn render_assignment(asg: &[(ThresholdId, bool)]) -> String {
    if asg.is_empty() {
        return "(no thresholds)".into();
    }
    asg.iter()
        .map(|(id, taken)| format!("t{}={}", id.0, if *taken { "0" } else { "MAX" }))
        .collect::<Vec<_>>()
        .join(",")
}

/// Deliberately break every `reduce`/`redomap` whose neutral element is
/// the literal `0`, swapping it for `1`. Used by tests to prove the
/// oracle detects a genuinely unsound transformation; returns how many
/// neutral elements were swapped.
pub fn break_zero_neutral_elements(prog: &mut flat_ir::Program) -> usize {
    use flat_ir::ast::{Exp, Soac, SubExp};
    use flat_ir::Const;

    fn fix_nes(nes: &mut [SubExp]) -> usize {
        let mut n = 0;
        for ne in nes {
            if matches!(ne, SubExp::Const(Const::I64(0))) {
                *ne = SubExp::Const(Const::I64(1));
                n += 1;
            }
        }
        n
    }

    fn walk_body(body: &mut flat_ir::ast::Body) -> usize {
        let mut n = 0;
        for stm in &mut body.stms {
            n += match &mut stm.exp {
                Exp::Soac(Soac::Reduce { lam, nes, .. }) => fix_nes(nes) + walk_body(&mut lam.body),
                Exp::Soac(Soac::Redomap { red, map, nes, .. }) => {
                    fix_nes(nes) + walk_body(&mut red.body) + walk_body(&mut map.body)
                }
                Exp::Soac(Soac::Map { lam, .. })
                | Exp::Soac(Soac::Scan { lam, .. }) => walk_body(&mut lam.body),
                Exp::Soac(Soac::Scanomap { scan, map, .. }) => {
                    walk_body(&mut scan.body) + walk_body(&mut map.body)
                }
                Exp::If { tb, fb, .. } => walk_body(tb) + walk_body(fb),
                Exp::Loop { body, .. } => walk_body(body),
                _ => 0,
            };
        }
        n
    }

    walk_body(&mut prog.body)
}

/// Convenience used by tests and the CLI: parse a single-`def` source
/// string and return its `main` definition.
pub fn parse_main(src: &str) -> Result<(SProgram, SDef), Failure> {
    let sprog = flat_lang::parse_program(src).map_err(|e| fail("parse", e))?;
    let def = sprog
        .find("main")
        .cloned()
        .ok_or_else(|| fail("parse", "no `main` definition"))?;
    Ok((sprog, def))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_a_nested_map_program() {
        let src = "def main [n][m] (xss: [n][m]i64) (ys: [m]i64) (c: i64) =\n  \
                   map (\\r -> redomap (+) (\\x -> x * c) 0 r) xss";
        let inputs = FuzzInputs::from_seed(3, 4, 7);
        let report = Oracle::new().check(src, &inputs).expect("oracle should pass");
        assert!(
            report.distinct_paths() >= 2,
            "nested map-reduce must exercise at least two version paths, got {:?}",
            report.path_signatures
        );
        assert!(report.versions_checked >= 3);
    }

    #[test]
    fn oracle_catches_a_broken_neutral_element() {
        let src = "def main [n][m] (xss: [n][m]i64) (ys: [m]i64) (c: i64) =\n  \
                   reduce (+) 0 ys";
        let inputs = FuzzInputs::from_seed(2, 3, 11);
        let mut oracle = Oracle::new();
        oracle.mutate_post_elab = Some(Box::new(|p| {
            let swapped = break_zero_neutral_elements(p);
            assert!(swapped > 0, "mutation found nothing to break");
        }));
        let err = oracle.check(src, &inputs).expect_err("must detect the broken reduce");
        assert_eq!(err.stage, "source-vs-ir", "unexpected failure: {err}");
    }
}
