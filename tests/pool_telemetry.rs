//! Regression tests for telemetry isolation on a *shared* worker pool.
//!
//! `workpool` process-caches pools by thread count, so two programs
//! running "at the same time" with the same `--threads` share one pool.
//! The original implementation toggled the pool-global telemetry and
//! span-recording flags on entry/exit of every run: a telemetry-off run
//! finishing first would switch the flags off underneath a concurrent
//! telemetry-on run (losing its counters and spans), and two traced
//! runs would steal spans from each other's span logs.
//!
//! The fix is a reference-counted telemetry session (the flag drops
//! only when the *last* session ends), an exclusive span-recording
//! token, and process-unique kernel tags so a run keeps exactly its own
//! spans. These tests drive concurrent VM runs on one pool and pin that
//! behaviour.

use incremental_flattening::prelude::*;

use exec::ExecConfig;
use flat_ir::interp::Thresholds;
use ir::value::{Buffer, Value};
use std::collections::HashSet;

const SRC: &str = "def main [n][m] (xss: [n][m]f32): [n]f32 =\n  map (\\xs -> reduce (+) 0f32 xs) xss\n";

fn flattened() -> compiler::Flattened {
    let prog = lang::compile(SRC, "main").unwrap();
    compiler::flatten_incremental(&prog).unwrap()
}

fn args(n: i64, m: i64, seed: u64) -> Vec<Value> {
    let abs = vec![
        gpu::AbsValue::known(ir::Const::I64(n)),
        gpu::AbsValue::known(ir::Const::I64(m)),
        gpu::AbsValue::array(vec![n, m], ir::ScalarType::F32),
    ];
    exec::materialize(&abs, seed).unwrap()
}

fn cfg(telemetry: bool, worker_trace: bool) -> ExecConfig {
    ExecConfig {
        thresholds: Thresholds::new(),
        threads: Some(4), // same count on every run -> same cached pool
        telemetry,
        worker_trace,
        ..ExecConfig::default()
    }
}

/// A traced run's spans must all carry its own launch tags, and its
/// pool-counter delta must survive concurrent untraced runs finishing
/// (and formerly switching telemetry off) underneath it.
#[test]
fn concurrent_runs_on_a_shared_pool_keep_telemetry_isolated() {
    let fl = flattened();
    let vals_traced = args(64, 64, 7);
    let vals_plain = args(32, 32, 8);

    for round in 0..8 {
        let (traced, plain) = std::thread::scope(|s| {
            let fl_ref = &fl;
            let tv = &vals_traced;
            let pv = &vals_plain;
            let a = s.spawn(move || {
                vm::run_program(&fl_ref.prog, tv, &cfg(true, true)).unwrap()
            });
            // Several short telemetry-off runs maximize the chance one
            // finishes while the traced run is mid-flight.
            let b = s.spawn(move || {
                let mut last = None;
                for _ in 0..4 {
                    last = Some(vm::run_program(&fl_ref.prog, pv, &cfg(false, false)).unwrap());
                }
                last.unwrap()
            });
            (a.join().unwrap(), b.join().unwrap())
        });

        assert!(
            traced.pool.is_some(),
            "round {round}: traced run lost its pool telemetry"
        );
        assert!(plain.pool.is_none(), "round {round}: untraced run grew telemetry");

        // Spans, when recorded, belong to this run's launches only.
        let own: HashSet<u64> =
            traced.launches.iter().map(|l| l.tag).filter(|&t| t != 0).collect();
        assert!(
            !traced.spans.is_empty(),
            "round {round}: traced run recorded no spans"
        );
        for span in &traced.spans {
            assert!(
                own.contains(&span.tag),
                "round {round}: span tag {} belongs to another run",
                span.tag
            );
        }
        assert!(plain.spans.is_empty(), "round {round}: untraced run stole spans");
    }
}

/// A traced run of a precompiled program, concurrent with untraced runs
/// that compile their own copy, keeps its own spans and telemetry, and
/// its results stay bitwise identical to a solo run.
#[test]
fn traced_and_untraced_runs_share_the_pool_without_cross_talk() {
    let fl = flattened();
    let compiled = vm::compile(&fl.prog).unwrap();
    let vals = args(48, 32, 9);
    let solo = vm::run_compiled(&compiled, &vals, &cfg(false, false)).unwrap();

    for _ in 0..4 {
        let (traced, _) = std::thread::scope(|s| {
            let cref = &compiled;
            let fref = &fl;
            let vref = &vals;
            let a = s.spawn(move || {
                vm::run_compiled(cref, vref, &cfg(true, true)).unwrap()
            });
            let b = s.spawn(move || {
                for _ in 0..4 {
                    vm::run_program(&fref.prog, vref, &cfg(false, false)).unwrap();
                }
            });
            (a.join().unwrap(), b.join().unwrap())
        });

        assert!(traced.pool.is_some());
        let own: HashSet<u64> =
            traced.launches.iter().map(|l| l.tag).filter(|&t| t != 0).collect();
        for span in &traced.spans {
            assert!(own.contains(&span.tag), "vm run kept a foreign span");
        }
        // Telemetry plumbing must not perturb results.
        assert_eq!(traced.values.len(), solo.values.len());
        for (a, b) in traced.values.iter().zip(&solo.values) {
            match (a, b) {
                (Value::Array(x), Value::Array(y)) => {
                    assert_eq!(x.shape, y.shape);
                    match (&x.data, &y.data) {
                        (Buffer::F32(p), Buffer::F32(q)) => {
                            assert_eq!(
                                p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            );
                        }
                        (p, q) => assert_eq!(p, q),
                    }
                }
                (x, y) => assert_eq!(x, y),
            }
        }
    }
}

/// Two *traced* runs at once: the span-recording token serializes span
/// capture, but both must complete, and each gets spans for its own
/// kernels only.
#[test]
fn two_traced_runs_serialize_span_recording() {
    let fl = flattened();
    let va = args(40, 24, 3);
    let vb = args(24, 40, 4);

    let (ra, rb) = std::thread::scope(|s| {
        let fr = &fl;
        let va = &va;
        let vb = &vb;
        let a = s.spawn(move || vm::run_program(&fr.prog, va, &cfg(true, true)).unwrap());
        let b = s.spawn(move || vm::run_program(&fr.prog, vb, &cfg(true, true)).unwrap());
        (a.join().unwrap(), b.join().unwrap())
    });

    for (name, rep) in [("a", &ra), ("b", &rb)] {
        assert!(rep.pool.is_some(), "run {name} lost telemetry");
        assert!(!rep.spans.is_empty(), "run {name} recorded no spans");
        let own: HashSet<u64> =
            rep.launches.iter().map(|l| l.tag).filter(|&t| t != 0).collect();
        for span in &rep.spans {
            assert!(own.contains(&span.tag), "run {name} kept a foreign span");
        }
    }
    // The tag spaces of the two runs are disjoint.
    let tags_a: HashSet<u64> = ra.launches.iter().map(|l| l.tag).collect();
    let tags_b: HashSet<u64> = rb.launches.iter().map(|l| l.tag).collect();
    assert!(tags_a.is_disjoint(&tags_b), "kernel tags must be process-unique");
}
