//! Property-based tests for the dense kernels: algebraic identities that must
//! hold for arbitrary shapes and values, and bit-for-bit oracles pinning the
//! fused Algorithm 3 kernels and the GEMMs to the reference kernels they
//! replace.

use marius_tensor::segment::{
    gather_segment_mean, gather_segment_sum, index_add, index_select, segment_expand, segment_mean,
    segment_scatter_add, segment_softmax, segment_sum,
};
use marius_tensor::{Tensor, TensorError};
use proptest::prelude::*;

/// Strategy: a small tensor with the given number of rows.
fn tensor_with_rows(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, rows, cols))
}

/// Strategy: a tensor of arbitrary small shape.
fn small_tensor() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..6).prop_flat_map(|(r, c)| tensor_with_rows(r, c))
}

/// Strategy: monotone offsets covering `len` rows, one entry per segment.
fn offsets_for(len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..=len, 1..5).prop_map(move |mut v| {
        v.sort_unstable();
        if v.is_empty() || v[0] != 0 {
            v.insert(0, 0);
        }
        v
    })
}

/// Strategy: one element, about a third of them zero (as in a ReLU-masked
/// operand), with −0.0, NaN, ±inf and a subnormal mixed in.
fn element() -> impl Strategy<Value = f32> {
    (0u32..40, -10.0f32..10.0).prop_map(|(kind, v)| match kind {
        0..=12 => 0.0,
        13 => -0.0,
        14 => f32::NAN,
        15 => f32::INFINITY,
        16 => f32::NEG_INFINITY,
        17 => 1e-40,
        _ => v,
    })
}

/// Strategy: a `rows x cols` tensor of [`element`]s.
fn special_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(element(), rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, rows, cols))
}

/// Strategy: a column count, including zero and the width the GEMMs keep in
/// registers (8).
fn width() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..4, Just(8usize), 5usize..13]
}

/// Strategy: a GEMM's left operand, either ReLU-sparse ([`special_tensor`]) or
/// dense with few zeros, so the register kernels run both ways of skipping a
/// zero entry.
fn operand(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    let dense_element = (0u32..40, -10.0f32..10.0).prop_map(|(kind, v)| match kind {
        0 => -0.0,
        1 => f32::NAN,
        2 => f32::INFINITY,
        _ => v,
    });
    let dense = proptest::collection::vec(dense_element, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, rows, cols));
    prop_oneof![special_tensor(rows, cols), dense]
}

/// Strategy: a valid offsets array over `len` rows (0 to 5 segments; the first
/// may start after row 0, and segments may be empty).
fn loose_offsets(len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..=len, 0..6).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// The shape and exact bits of a tensor, every NaN read as one canonical NaN:
/// Rust leaves the sign and payload of a NaN produced by arithmetic
/// unspecified (an optimised build may commute `x + y` and propagate the other
/// operand's NaN), so only NaN-ness is part of a kernel's contract.
fn bits(t: &Tensor) -> ((usize, usize), Vec<u32>) {
    let canonical = |x: &f32| {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    (t.shape(), t.data().iter().map(canonical).collect())
}

/// Naive reference GEMM: a triple loop summing each element's products in
/// ascending `p` from +0.0, skipping zero left-hand entries.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                let x = a.get(i, p);
                if x == 0.0 {
                    continue;
                }
                acc += x * b.get(p, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Naive reference `aᵀ · b`.
fn naive_transpose_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    naive_matmul(&a.transpose(), b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused gather + segment sum / mean equals index_select followed by
    /// segment_sum / segment_mean, bit for bit.
    #[test]
    fn fused_gather_segment_matches_unfused_chain(
        (input, indices, offsets) in (0usize..8, width(), 0usize..24).prop_flat_map(|(r, c, e)| {
            // An input without rows can only be gathered from by no index.
            let e = if r == 0 { 0 } else { e };
            (special_tensor(r, c), proptest::collection::vec(0..r.max(1), e), loose_offsets(e))
        }),
    ) {
        let gathered = index_select(&input, &indices).unwrap();
        let sum = gather_segment_sum(&input, &indices, &offsets).unwrap();
        prop_assert_eq!(bits(&sum), bits(&segment_sum(&gathered, &offsets).unwrap()));
        let mean = gather_segment_mean(&input, &indices, &offsets).unwrap();
        prop_assert_eq!(bits(&mean), bits(&segment_mean(&gathered, &offsets).unwrap()));
    }

    /// The fused segment scatter-add equals segment_expand followed by
    /// index_add, bit for bit.
    #[test]
    fn fused_segment_scatter_add_matches_unfused_chain(
        (num_rows, seg_grad, indices, offsets) in (1usize..8, width(), 0usize..24)
            .prop_flat_map(|(r, c, e)| {
                (Just(r), Just(c), proptest::collection::vec(0..r, e), loose_offsets(e))
            })
            .prop_flat_map(|(r, c, idx, offsets)| {
                (Just(r), special_tensor(offsets.len(), c), Just(idx), Just(offsets))
            }),
    ) {
        let cols = seg_grad.cols();
        let expanded = segment_expand(&seg_grad, &offsets, indices.len()).unwrap();
        let unfused = index_add(num_rows, cols, &indices, &expanded).unwrap();
        let fused = segment_scatter_add(num_rows, &seg_grad, &indices, &offsets).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    /// `matmul` and `matmul_from_row` equal a naive triple loop, bit for bit.
    #[test]
    fn matmul_matches_naive_reference(
        (a, b, start) in (0usize..7, 0usize..10, width()).prop_flat_map(|(m, k, n)| {
            (operand(m, k), special_tensor(k, n), 0..=m)
        }),
    ) {
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b)));
        let tail = a.slice_rows(start, a.rows()).unwrap();
        prop_assert_eq!(
            bits(&a.matmul_from_row(start, &b).unwrap()),
            bits(&naive_matmul(&tail, &b))
        );
    }

    /// `transpose_matmul` and `transpose_matmul_from_row` equal the naive
    /// reference and `transpose().matmul()`, bit for bit.
    #[test]
    fn transpose_matmul_matches_reference(
        (a, b, head) in (0usize..7, 0usize..10, width()).prop_flat_map(|(m, k, n)| {
            (0..=m).prop_flat_map(move |tail| {
                (operand(m, k), special_tensor(tail, n), Just(m - tail))
            })
        }),
    ) {
        let tail = a.slice_rows(head, a.rows()).unwrap();
        let expected = bits(&naive_transpose_matmul(&tail, &b));
        prop_assert_eq!(
            bits(&a.transpose_matmul_from_row(head, &b).unwrap()),
            expected.clone()
        );
        prop_assert_eq!(bits(&tail.transpose_matmul(&b).unwrap()), expected.clone());
        prop_assert_eq!(bits(&tail.transpose().matmul(&b)), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `transpose_matmul` over enough shared rows to span several tiles of its
    /// register kernel equals `transpose().matmul()`, bit for bit.
    #[test]
    fn transpose_matmul_matches_reference_across_tiles(
        (a, b) in (250usize..700, 1usize..5, prop_oneof![Just(8usize), 1usize..12])
            .prop_flat_map(|(m, k, n)| (operand(m, k), special_tensor(m, n))),
    ) {
        prop_assert_eq!(
            bits(&a.transpose_matmul(&b).unwrap()),
            bits(&a.transpose().matmul(&b))
        );
    }

    /// Out-of-range indices, non-monotone or oversized offsets, and a gradient
    /// with the wrong number of segment rows return typed errors, never panic.
    #[test]
    fn fused_kernels_reject_bad_input_with_typed_errors(
        (rows, indices, bad_at, offsets, cut) in (1usize..6, 1usize..12).prop_flat_map(|(r, e)| {
            (Just(r), proptest::collection::vec(0..r, e), 0..e, loose_offsets(e), 0usize..3)
        }),
    ) {
        let input = Tensor::ones(rows, 3);
        let seg_grad = Tensor::ones(offsets.len(), 3);
        let e = indices.len();

        // One index past the end, anywhere in the list.
        let mut out_of_range = indices.clone();
        out_of_range[bad_at] = rows + bad_at;
        let is_index_error = |r: Result<Tensor, TensorError>| {
            matches!(r, Err(TensorError::IndexOutOfBounds { .. }))
        };
        prop_assert!(is_index_error(gather_segment_sum(&input, &out_of_range, &offsets)));
        prop_assert!(is_index_error(gather_segment_mean(&input, &out_of_range, &offsets)));
        prop_assert!(is_index_error(segment_scatter_add(rows, &seg_grad, &out_of_range, &offsets)));

        // Offsets that decrease, or run past the indices.
        let is_offsets_error =
            |r: Result<Tensor, TensorError>| matches!(r, Err(TensorError::InvalidOffsets { .. }));
        let mut decreasing = offsets.clone();
        decreasing.push(e);
        decreasing.push(cut.min(e.saturating_sub(1)));
        let oversized = vec![0, e + 1 + cut];
        for bad in [&decreasing, &oversized] {
            let grad = Tensor::ones(bad.len(), 3);
            prop_assert!(is_offsets_error(gather_segment_sum(&input, &indices, bad)));
            prop_assert!(is_offsets_error(gather_segment_mean(&input, &indices, bad)));
            prop_assert!(is_offsets_error(segment_scatter_add(rows, &grad, &indices, bad)));
        }

        // A gradient whose row count is not the segment count.
        let wrong = Tensor::ones(offsets.len() + 1 + cut, 3);
        prop_assert!(matches!(
            segment_scatter_add(rows, &wrong, &indices, &offsets),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }
}

proptest! {
    /// (A · B) · C == A · (B · C) within floating-point tolerance.
    #[test]
    fn matmul_is_associative(
        a in tensor_with_rows(3, 4),
        b in tensor_with_rows(4, 2),
        c in tensor_with_rows(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data().iter()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    /// Transposing twice is the identity.
    #[test]
    fn double_transpose_is_identity(t in small_tensor()) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    /// Softmax rows are a probability distribution.
    #[test]
    fn softmax_rows_are_distributions(t in small_tensor()) {
        let s = t.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        }
    }

    /// segment_sum over singleton segments is the identity.
    #[test]
    fn segment_sum_singletons_identity(t in small_tensor()) {
        let offsets: Vec<usize> = (0..t.rows()).collect();
        let out = segment_sum(&t, &offsets).unwrap();
        prop_assert_eq!(out, t);
    }

    /// The total mass is preserved by segment_sum regardless of segmentation.
    #[test]
    fn segment_sum_preserves_total(
        (t, offsets) in (2usize..8)
            .prop_flat_map(|r| (tensor_with_rows(r, 3), offsets_for(r))),
    ) {
        let out = segment_sum(&t, &offsets).unwrap();
        prop_assert!((out.sum() - t.sum()).abs() < 1e-3);
    }

    /// segment_mean output never exceeds the per-segment max magnitude bound.
    #[test]
    fn segment_mean_is_bounded_by_extremes(
        t in (2usize..8).prop_flat_map(|r| tensor_with_rows(r, 2)),
    ) {
        let offsets = vec![0, t.rows() / 2];
        let out = segment_mean(&t, &offsets).unwrap();
        prop_assert!(out.max() <= t.max() + 1e-5);
        prop_assert!(out.min() >= t.min() - 1e-5);
    }

    /// index_add is the adjoint of index_select: <select(h, idx), g> == <h, add(idx, g)>.
    #[test]
    fn gather_scatter_adjointness(
        h in tensor_with_rows(5, 3),
        idx in proptest::collection::vec(0usize..5, 1..12),
    ) {
        let sel = index_select(&h, &idx).unwrap();
        let g = Tensor::ones(idx.len(), 3);
        let lhs: f32 = sel.data().iter().sum();
        let back = index_add(5, 3, &idx, &g).unwrap();
        let rhs: f32 = h
            .data()
            .iter()
            .zip(back.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        prop_assert!((lhs - rhs).abs() < 1e-2);
    }

    /// segment_expand of a segment_sum reproduces each segment's total on every row.
    #[test]
    fn expand_after_sum_is_constant_within_segments(
        t in (3usize..9).prop_flat_map(|r| tensor_with_rows(r, 2)),
    ) {
        let offsets = vec![0, t.rows() / 3, 2 * t.rows() / 3];
        let summed = segment_sum(&t, &offsets).unwrap();
        let expanded = segment_expand(&summed, &offsets, t.rows()).unwrap();
        for s in 0..offsets.len() {
            let start = offsets[s];
            let end = if s + 1 < offsets.len() { offsets[s + 1] } else { t.rows() };
            for r in start..end {
                prop_assert_eq!(expanded.row(r), summed.row(s));
            }
        }
    }

    /// Segment softmax sums to one within every non-empty segment.
    #[test]
    fn segment_softmax_normalises(
        scores in (3usize..10).prop_flat_map(|r| tensor_with_rows(r, 1)),
    ) {
        let offsets = vec![0, scores.rows() / 2];
        let out = segment_softmax(&scores, &offsets).unwrap();
        let first: f32 = (0..scores.rows() / 2).map(|r| out.get(r, 0)).sum();
        let second: f32 = (scores.rows() / 2..scores.rows()).map(|r| out.get(r, 0)).sum();
        if scores.rows() / 2 > 0 {
            prop_assert!((first - 1.0).abs() < 1e-4);
        }
        prop_assert!((second - 1.0).abs() < 1e-4);
    }

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_idempotent(t in small_tensor()) {
        let once = t.relu();
        prop_assert!(once.min() >= 0.0);
        prop_assert_eq!(once.relu(), once);
    }
}
