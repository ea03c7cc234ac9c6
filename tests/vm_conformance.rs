//! Conformance tests for the `flat-vm` executor: on every example,
//! corpus seed, and benchmark, VM results must be **bit-identical**
//! across 1, 4 and 8 threads — values and `path_signature` alike — at
//! the default grain and at a tiny grain that forces multi-block
//! decompositions, and the live-dispatched path must be one the
//! threshold branching tree admits.
//!
//! Agreement with the reference interpreter: integer programs match
//! exactly at every grain; float programs match bitwise at the default
//! (single-block) grain and approximately under multi-block reduction,
//! where the combine order differs from the interpreter's strictly
//! sequential fold.
//!
//! Two disassembly goldens pin the bytecode lowering: register
//! assignment, monomorphic opcode selection, and the compiled segop
//! structure for a `segmap` and a `segred`.

use incremental_flattening::prelude::*;

use exec::{ExecConfig, ExecReport};
use flat_ir::interp::Thresholds;
use ir::value::{Buffer, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const SMALL_GRAIN: usize = 4;

fn cfg(threads: usize, grain: usize) -> ExecConfig {
    ExecConfig {
        thresholds: Thresholds::new(),
        threads: Some(threads),
        grain,
        ..ExecConfig::default()
    }
}

fn buffers_approx(a: &Buffer, b: &Buffer) -> bool {
    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0)
    }
    match (a, b) {
        (Buffer::F32(x), Buffer::F32(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| close(*u as f64, *v as f64))
        }
        (Buffer::F64(x), Buffer::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| close(*u, *v))
        }
        _ => a == b,
    }
}

fn values_approx(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Array(u), Value::Array(v)) => {
                u.shape == v.shape && buffers_approx(&u.data, &v.data)
            }
            (Value::Scalar(ir::Const::F32(u)), Value::Scalar(ir::Const::F32(v))) => {
                buffers_approx(&Buffer::F32(vec![*u]), &Buffer::F32(vec![*v]))
            }
            (Value::Scalar(ir::Const::F64(u)), Value::Scalar(ir::Const::F64(v))) => {
                buffers_approx(&Buffer::F64(vec![*u]), &Buffer::F64(vec![*v]))
            }
            _ => x == y,
        })
}

fn has_floats(vals: &[Value]) -> bool {
    vals.iter().any(|v| match v {
        Value::Scalar(c) => matches!(c, ir::Const::F32(_) | ir::Const::F64(_)),
        Value::Array(a) => matches!(a.data, Buffer::F32(_) | Buffer::F64(_)),
    })
}

/// The conformance contract for one flattened program on one argument
/// list: the VM against itself at every thread count and against the
/// interpreter, at both grains.
fn check_conformance(name: &str, fl: &compiler::Flattened, args: &[Value]) {
    let reference = ir::interp::run_program(&fl.prog, args, &Thresholds::new())
        .unwrap_or_else(|e| panic!("{name}: interpreter failed: {e}"));
    let exact = !has_floats(&reference);

    for grain in [exec::DEFAULT_GRAIN, SMALL_GRAIN] {
        let reports: Vec<ExecReport> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                vm::run_program(&fl.prog, args, &cfg(threads, grain)).unwrap_or_else(|e| {
                    panic!("{name}: vm ({threads} threads, grain {grain}): {e}")
                })
            })
            .collect();

        // Bit-identical across thread counts, including the taken path,
        // and the live path is one the branching tree can reach.
        for (rep, threads) in reports.iter().zip(THREAD_COUNTS) {
            assert_eq!(
                rep.values, reports[0].values,
                "{name}: grain {grain}: vm at {threads} threads diverges from 1 thread"
            );
            assert_eq!(
                rep.signature(),
                reports[0].signature(),
                "{name}: grain {grain}: vm path depends on thread count"
            );
            assert!(
                fl.thresholds.path_in_tree(&rep.signature()),
                "{name}: vm live path {:?} not in the threshold tree",
                rep.signature()
            );
        }

        let got = &reports[0].values;
        if exact {
            assert_eq!(got, &reference, "{name}: grain {grain}: vm != interpreter");
        } else if grain == exec::DEFAULT_GRAIN {
            assert_eq!(
                got, &reference,
                "{name}: single-block float vm run should be bitwise equal to the interpreter"
            );
        } else {
            assert!(
                values_approx(got, &reference),
                "{name}: grain {grain}: vm not even approximately equal to the interpreter"
            );
        }
    }
}

fn f32_matrix(rows: i64, cols: i64, seed: u64) -> Value {
    exec::materialize(&[gpu::AbsValue::array(vec![rows, cols], ir::ScalarType::F32)], seed)
        .unwrap()
        .pop()
        .unwrap()
}

fn f32_cube(a: i64, b: i64, c: i64, seed: u64) -> Value {
    exec::materialize(&[gpu::AbsValue::array(vec![a, b, c], ir::ScalarType::F32)], seed)
        .unwrap()
        .pop()
        .unwrap()
}

#[test]
fn examples_conform() {
    let matmul = std::fs::read_to_string("examples/matmul.fut").unwrap();
    let prog = lang::compile(&matmul, "matmul").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![
        Value::i64_(6),
        Value::i64_(10),
        Value::i64_(7),
        f32_matrix(6, 10, 1),
        f32_matrix(10, 7, 2),
    ];
    check_conformance("examples/matmul.fut", &fl, &args);

    let sumrows = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    let prog = lang::compile(&sumrows, "sumrows").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(5), Value::i64_(9), f32_matrix(5, 9, 3)];
    check_conformance("examples/sumrows.fut", &fl, &args);
}

/// The paper's flagship shape-dependent program: an outer map over a
/// sequential time loop of scan pipelines. Narrow-outer dataset so the
/// flattened inner versions get exercised too.
#[test]
fn locvolcalib_conforms() {
    let src = std::fs::read_to_string("examples/locvolcalib.fut").unwrap();
    let prog = lang::compile(&src, "locvolcalib").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![
        Value::i64_(16),
        Value::i64_(4),
        Value::i64_(8),
        f32_cube(16, 4, 8, 11),
        f32_cube(16, 8, 4, 12),
        Value::i64_(2),
    ];
    check_conformance("examples/locvolcalib.fut", &fl, &args);
}

#[test]
fn benchmark_suite_conforms() {
    let cfg = compiler::FlattenConfig::incremental();
    for b in bench_suite::all_benchmarks() {
        let fl = b.flatten(&cfg);
        let mut rng = StdRng::seed_from_u64(0xDE7E);
        let args = (b.test_args)(&mut rng);
        check_conformance(b.name, &fl, &args);
    }
}

#[test]
fn corpus_conforms() {
    let cases = fuzz::corpus::load_dir(std::path::Path::new("tests/corpus")).unwrap();
    assert!(!cases.is_empty(), "corpus directory should not be empty");
    for case in cases {
        let inputs = fuzz::oracle::FuzzInputs::from_seed(case.n, case.m, case.data_seed);
        let prog = lang::compile(&case.source, "main")
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let fl = compiler::flatten_incremental(&prog).unwrap();
        check_conformance(&case.name, &fl, &inputs.ir_args());
    }
}

/// Zero-extent degrees must flow through the VM as empty results —
/// never panics: empty segments, empty blocks, and zero-width inner
/// dimensions are structured `ExecError`s or well-defined empty shapes.
#[test]
fn zero_extent_segments_run_on_the_vm() {
    let empty_i64 = |shape: Vec<i64>| Value::array_from(shape, Buffer::I64(vec![]));

    // segmap over zero elements.
    let src = "def main [n] (xs: [n]i64) =\n  map (\\x -> x + 1) xs\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(0), empty_i64(vec![0])];
    check_conformance("segmap/zero-width", &fl, &args);

    // segred with zero segments (n = 0) and with a zero-width inner
    // dimension (m = 0: every row sum is the neutral element).
    let src = "def main [n][m] (xss: [n][m]i64) =\n  map (\\r -> reduce (+) 0 r) xss\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(0), Value::i64_(3), empty_i64(vec![0, 3])];
    check_conformance("segred/zero-segments", &fl, &args);
    let args = vec![Value::i64_(3), Value::i64_(0), empty_i64(vec![3, 0])];
    check_conformance("segred/zero-inner-width", &fl, &args);

    // segscan with a zero-width inner dimension (total = 0).
    let src = "def main [n][m] (xss: [n][m]i64) =\n  map (\\r -> scan (+) 0 r) xss\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(3), Value::i64_(0), empty_i64(vec![3, 0])];
    check_conformance("segscan/zero-inner-width", &fl, &args);
    let args = vec![Value::i64_(0), Value::i64_(2), empty_i64(vec![0, 2])];
    check_conformance("segscan/zero-segments", &fl, &args);
}

/// An out-of-bounds index is a structured `ExecError` on the VM — no
/// panic — whether it is too large or negative.
#[test]
fn out_of_bounds_index_is_a_structured_error() {
    let src = "def main [n] (xs: [n]i64) (c: i64) =\n  xs[c]\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    for c in [7, -1] {
        let args = vec![
            Value::i64_(3),
            Value::i64_vec(vec![10, 20, 30]),
            Value::i64_(c),
        ];
        for threads in THREAD_COUNTS {
            let e = vm::run_program(&fl.prog, &args, &cfg(threads, SMALL_GRAIN))
                .expect_err("vm must reject the out-of-bounds index");
            assert!(
                e.0.contains("out of bounds"),
                "index {c}: unstructured error: {}",
                e.0
            );
        }
    }

    // In-bounds still works, bitwise across thread counts.
    let args = vec![
        Value::i64_(3),
        Value::i64_vec(vec![10, 20, 30]),
        Value::i64_(1),
    ];
    check_conformance("index/in-bounds", &fl, &args);
}

/// The live-dispatched path is not just *consistent* with the tree
/// (`path_in_tree`) — it is literally one of the paths
/// `ThresholdRegistry::enumerate_assignments` produces when forced, and
/// every forced path computes the same result.
#[test]
fn live_dispatch_takes_an_enumerated_path() {
    let src = "\
def main [n][m] (xss: [n][m]i64) (ys: [m]i64) (c: i64) =
  map (\\r -> redomap (+) (\\x -> x * c) 0 r) xss
";
    let inputs = fuzz::oracle::FuzzInputs::from_seed(5, 6, 99);
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = inputs.ir_args();

    let live = vm::run_program(&fl.prog, &args, &cfg(4, SMALL_GRAIN)).unwrap();
    let live_sig = live.signature();

    let mut forced_sigs = Vec::new();
    for asg in fl.thresholds.enumerate_assignments(32) {
        let mut t = Thresholds::new();
        for (id, taken) in &asg {
            t.set(*id, if *taken { 0 } else { i64::MAX });
        }
        let c = ExecConfig {
            thresholds: t,
            ..cfg(2, SMALL_GRAIN)
        };
        let rep = vm::run_program(&fl.prog, &args, &c).unwrap();
        assert_eq!(rep.values, live.values, "forced path changed the result");
        forced_sigs.push(rep.signature());
    }
    assert!(
        forced_sigs.len() >= 2,
        "the nest should have several versions"
    );
    assert!(
        forced_sigs.contains(&live_sig),
        "live path {live_sig:?} not among the enumerated paths {forced_sigs:?}"
    );
}

/// Bytecode goldens: the lowering of a one-level `map` (a `segmap` with
/// a monomorphic i64 body) and a `reduce` (a `segred` with fold and
/// combine functions over accumulator registers) is pinned exactly —
/// register assignment, opcode selection, and segop structure.
/// Deliberately printed without variable names (register indices only),
/// so the text is stable under the process-global name counter.
#[test]
fn disassembly_goldens() {
    let map_src = "def main [n] (xs: [n]i64) (c: i64) =\n  map (\\x -> x * c + 1) xs\n";
    let prog = lang::compile(map_src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let compiled = vm::compile(&fl.prog).unwrap();
    let golden = "\
vm program: funcs=2 segs=1 soacs=0 regs int=6 flt=0 arr=2
params: i0:i64^0, a0^1, i1:i64^0
results: [a1]
fn0: (entry)
  seg          g0
fn1:
  mul.i64      i3 <- i2, i1
  iconst       i5 <- 1
  add.i64      i4 <- i3, i5
g0: segmap level=1
  dim 0: width=i0 binds=[i2:i64 <- a0[.]]
  body=fn1 outs=[i4:i64]
  dsts=[a1]
";
    assert_eq!(vm::disasm(&compiled), golden, "segmap lowering drifted");

    let red_src = "def main [n] (xs: [n]i64) =\n  reduce (+) 0 xs\n";
    let prog = lang::compile(red_src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let compiled = vm::compile(&fl.prog).unwrap();
    let golden = "\
vm program: funcs=3 segs=1 soacs=0 regs int=10 flt=0 arr=1
params: i0:i64^0, a0^1
results: [i9:i64]
fn0: (entry)
  iconst       i4 <- 0
  seg          g0
fn1:
  mov          i3 <- i1
  add.i64      i5 <- i2, i3
  mov          i6 <- i5
  mov          i2 <- i6
fn2:
  add.i64      i7 <- i2, i3
  mov          i8 <- i7
  mov          i2 <- i8
g0: segred level=1
  dim 0: width=i0 binds=[i1:i64 <- a0[.]]
  fold=fn1 combine=fn2 nes=[i4:i64] accs=[i2:i64] rhs=[i3:i64]
  dsts=[i9:i64]
";
    assert_eq!(vm::disasm(&compiled), golden, "segred lowering drifted");
}
