//! Hand-written native-Rust ceilings for the two kernel programs: the
//! same arithmetic in the same element type, split over `threads`
//! scoped threads by independent output rows. They answer "how far is
//! the VM from the hardware" and double as an independent check of the
//! VM's output (within [`crate::check::REL`], since their float
//! association order differs from the VM's block partials).

/// Split `out` into `threads` runs of whole rows of `row` elements and
/// fill each run on its own thread; `f(first_row, rows)` fills one.
fn par_rows<T: Send>(
    out: &mut [T],
    row: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let rows = out.len() / row.max(1);
    let per = rows.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (i, chunk) in out.chunks_mut(per * row.max(1)).enumerate() {
            let f = &f;
            s.spawn(move || f(i * per, chunk));
        }
    });
}

/// `xss [n][m] × yss [m][p]`, as `map (map (redomap (+) (*) 0)) xss
/// (transpose yss)`: each dot product accumulates left to right.
pub fn matmul(n: usize, m: usize, p: usize, xss: &[f32], yss: &[f32], threads: usize) -> Vec<f32> {
    let mut tr = vec![0f32; m * p];
    for k in 0..m {
        for j in 0..p {
            tr[j * m + k] = yss[k * p + j];
        }
    }
    let mut out = vec![0f32; n * p];
    par_rows(&mut out, p, threads, |first, rows| {
        for (r, orow) in rows.chunks_mut(p).enumerate() {
            let xs = &xss[(first + r) * m..(first + r + 1) * m];
            for (j, o) in orow.iter_mut().enumerate() {
                let ys = &tr[j * m..(j + 1) * m];
                *o = xs.iter().zip(ys).fold(0f32, |acc, (x, y)| acc + x * y);
            }
        }
    });
    out
}

/// The `tridag` of `benchmarks::locvolcalib::SOURCE`, in place: three
/// inclusive scans seeded with their neutral elements.
fn tridag(row: &mut [f32]) {
    let mut acc = 0f32;
    for x in row.iter_mut() {
        acc += *x;
        *x = acc;
    }
    let mut acc = 0f32;
    for x in row.iter_mut() {
        acc = acc.max(*x);
        *x = acc;
    }
    let mut acc = 1_000_000f32;
    for x in row.iter_mut() {
        acc = acc.min(*x);
        *x = acc;
    }
}

/// LocVolCalib: every row of both matrices goes through `tridag`
/// `num_t` times; rows never interact, so the whole array is one
/// parallel loop over rows.
pub fn locvolcalib(
    xsss: &[f32],
    x_row: usize,
    ysss: &[f32],
    y_row: usize,
    num_t: usize,
    threads: usize,
) -> (Vec<f32>, Vec<f32>) {
    let run = |data: &[f32], row: usize| {
        let mut out = data.to_vec();
        par_rows(&mut out, row, threads, |_, rows| {
            for r in rows.chunks_mut(row) {
                for _ in 0..num_t {
                    tridag(r);
                }
            }
        });
        out
    };
    (run(xsss, x_row), run(ysss, y_row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation_at_every_thread_count() {
        let xss = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2
        let yss = [1.0, 0.0, 2.0, 0.0, 1.0, 3.0]; // 2x3
        for threads in 1..=4 {
            assert_eq!(
                matmul(3, 2, 3, &xss, &yss, threads),
                vec![1., 2., 8., 3., 4., 18., 5., 6., 28.]
            );
        }
    }

    #[test]
    fn tridag_runs_the_three_scans() {
        let mut row = [1.0, -3.0, 4.0];
        tridag(&mut row);
        // sums [1, -2, 2] -> running max [1, 1, 2] -> running min [1, 1, 1]
        assert_eq!(row, [1.0, 1.0, 1.0]);
        let (xs, ys) = locvolcalib(&[1.0, -3.0, 4.0], 3, &[-1.0, 2.0], 2, 1, 2);
        // sums [-1, 1] -> running max from 0 [0, 1] -> running min [0, 0]
        assert_eq!((xs, ys), (vec![1.0, 1.0, 1.0], vec![0.0, 0.0]));
    }
}
