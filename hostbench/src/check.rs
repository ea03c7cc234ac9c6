//! Output checks and input fingerprints.
//!
//! Two comparisons: bitwise equality (thread counts, the daemon's
//! replies) and the interpreter-agreement envelope of
//! `tests/vm_conformance.rs` (interpreter and native ceilings, whose
//! float reassociation differs from the VM's).

use flat_ir::value::{ArrayVal, Buffer, Value};
use flat_ir::Const;
use flat_serve::proto;

/// Relative tolerance of the agreement envelope: `|x - y| <= REL *
/// max(|x|, |y|, 1)`, as in `tests/vm_conformance.rs`. Integers and
/// booleans compare exactly.
pub const REL: f64 = 1e-4;

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= REL * x.abs().max(y.abs()).max(1.0)
}

fn buffers_close(a: &Buffer, b: &Buffer) -> bool {
    match (a, b) {
        (Buffer::F32(x), Buffer::F32(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| close(*u as f64, *v as f64))
        }
        (Buffer::F64(x), Buffer::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| close(*u, *v))
        }
        _ => a == b,
    }
}

fn scalar_buffer(c: &Const) -> Buffer {
    let mut b = Buffer::with_capacity(c.scalar_type(), 1);
    b.push(*c);
    b
}

/// Every value has the same shape and the same bits, as the wire
/// protocol compares them.
pub fn bitwise(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| proto::bitwise_eq(x, y))
}

/// Every value has the same shape and lies within the envelope.
pub fn within_envelope(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Array(u), Value::Array(v)) => {
                u.shape == v.shape && buffers_close(&u.data, &v.data)
            }
            (Value::Scalar(u), Value::Scalar(v)) => {
                buffers_close(&scalar_buffer(u), &scalar_buffer(v))
            }
            _ => false,
        })
}

/// FNV-1a over the wire encoding (shape, element type and bits) of
/// `values`.
pub fn fingerprint<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut text = String::new();
    for v in values {
        let (header, bits) = proto::result_header(0, v);
        text.push_str(&flat_obs::json::to_string(&header).expect("header serializes"));
        text.push_str(&bits);
    }
    flat_perf::fnv1a(text.as_bytes())
}

/// The sub-array made of the outer-dimension slices `rows` of `a`, in
/// that order.
pub fn take_outer(a: &ArrayVal, rows: &[usize]) -> ArrayVal {
    let inner: usize = a.shape[1..].iter().product::<i64>() as usize;
    let mut shape = a.shape.clone();
    shape[0] = rows.len() as i64;
    let mut data = Buffer::with_capacity(a.data.scalar_type(), rows.len() * inner);
    for &r in rows {
        data.extend_range(&a.data, r * inner, inner);
    }
    ArrayVal { shape, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s(shape: Vec<i64>, xs: Vec<f32>) -> Value {
        Value::Array(ArrayVal {
            shape,
            data: Buffer::F32(xs),
        })
    }

    #[test]
    fn bitwise_distinguishes_signed_zero_and_envelope_does_not() {
        let a = [f32s(vec![2], vec![0.0, 1.0])];
        let b = [f32s(vec![2], vec![-0.0, 1.00001])];
        assert!(!bitwise(&a, &b));
        assert!(within_envelope(&a, &b));
        assert!(!within_envelope(&a, &[f32s(vec![2], vec![0.0, 1.1])]));
    }

    #[test]
    fn take_outer_selects_rows_in_order() {
        let a = ArrayVal {
            shape: vec![3, 2],
            data: Buffer::F32(vec![0., 1., 2., 3., 4., 5.]),
        };
        let t = take_outer(&a, &[2, 0]);
        assert_eq!(t.shape, vec![2, 2]);
        assert_eq!(t.data, Buffer::F32(vec![4., 5., 0., 1.]));
    }
}
