//! Result framing round trips: the `chunks` count a `result` header
//! advertises must equal the number of `result-chunk` frames that
//! follow, for every shape the VM can return — zero-element arrays in
//! every element type included — so a reader that trusts the header
//! neither hangs on a missing chunk nor misreads the next result.

use flat_ir::value::{ArrayVal, Buffer, Value as IrValue};
use flat_ir::{Const, ScalarType};
use flat_obs::json::Value;
use flat_serve::proto::{self, FrameError, ResultAssembly, CHUNK_HEX, MAX_FRAME};

const ELEMS: [ScalarType; 5] = [
    ScalarType::I32,
    ScalarType::I64,
    ScalarType::F32,
    ScalarType::F64,
    ScalarType::Bool,
];

fn array(shape: Vec<i64>, elem: ScalarType) -> IrValue {
    let len = shape.iter().product::<i64>() as usize;
    let data = match elem {
        ScalarType::I32 => Buffer::I32((0..len as i32).map(|i| i * 3 - 7).collect()),
        ScalarType::I64 => Buffer::I64((0..len as i64).map(|i| i * 5 - 11).collect()),
        ScalarType::F32 => Buffer::F32((0..len).map(|i| i as f32 * 0.25 - 1.5).collect()),
        ScalarType::F64 => Buffer::F64((0..len).map(|i| i as f64 * 0.125 - 2.0).collect()),
        ScalarType::Bool => Buffer::Bool((0..len).map(|i| i % 3 == 0).collect()),
    };
    IrValue::Array(ArrayVal { shape, data })
}

/// Write `v` as result 0, then read it back frame by frame, checking
/// that exactly `chunks` chunk frames follow the header and nothing
/// after them. Returns the advertised chunk count.
fn round_trip(v: &IrValue) -> u64 {
    let mut wire = Vec::new();
    proto::write_result(&mut wire, 0, v).unwrap();
    let mut r = &wire[..];
    let header = proto::read_frame(&mut r, MAX_FRAME).unwrap();
    let chunks = header
        .get("chunks")
        .and_then(Value::as_u64)
        .expect("header has chunks");
    let mut asm = ResultAssembly::from_header(&header).unwrap();
    let mut read = 0;
    while asm.needs_chunks() {
        let chunk = proto::read_frame(&mut r, MAX_FRAME)
            .unwrap_or_else(|e| panic!("{v:?}: chunk {read} of {chunks} missing: {e:?}"));
        asm.push_chunk(&chunk).unwrap();
        read += 1;
    }
    assert_eq!(read, chunks, "header and chunk frames disagree");
    assert!(
        matches!(proto::read_frame(&mut r, MAX_FRAME), Err(FrameError::Eof)),
        "frames left over after the advertised chunks"
    );
    let back = asm.finish().unwrap();
    assert!(proto::bitwise_eq(&back, v), "{back:?} != {v:?}");
    chunks
}

#[test]
fn empty_array_round_trips() {
    for elem in ELEMS {
        for shape in [vec![0], vec![0, 3], vec![3, 0]] {
            let v = array(shape.clone(), elem);
            assert_eq!(
                round_trip(&v),
                0,
                "{elem:?} {shape:?}: an empty payload has no chunks"
            );
        }
    }
}

#[test]
fn scalars_ride_in_the_header() {
    for c in [
        Const::I32(-4),
        Const::I64(1 << 40),
        Const::F32(0.1),
        Const::F64(-2.5),
        Const::Bool(true),
    ] {
        assert_eq!(round_trip(&IrValue::Scalar(c)), 0, "{c:?}");
    }
}

#[test]
fn one_and_several_chunks_round_trip() {
    for elem in ELEMS {
        assert_eq!(round_trip(&array(vec![2, 3], elem)), 1, "{elem:?}");
    }
    // 16 hex characters per i64: one element past a chunk boundary
    // spills into a second chunk, and a payload of exactly two chunks
    // sends no empty third one.
    let per_chunk = (CHUNK_HEX / 16) as i64;
    assert_eq!(round_trip(&array(vec![per_chunk + 1], ScalarType::I64)), 2);
    assert_eq!(round_trip(&array(vec![2, per_chunk], ScalarType::I64)), 2);
}
