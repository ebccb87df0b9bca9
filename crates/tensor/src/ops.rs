//! Elementwise and linear-algebra kernels on [`Tensor`].
//!
//! These mirror the dense GPU kernels MariusGNN relies on for GNN forward and
//! backward passes: GEMM, broadcast add, row-wise softmax, ReLU and friends. All
//! kernels are written against the row-major layout of [`Tensor`] so that the inner
//! loops are cache friendly.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Matrix multiplication `self (m x k) * other (k x n) -> (m x n)`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree. Use [`Tensor::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other)
            .expect("matmul shape mismatch; use try_matmul for fallible behaviour")
    }

    /// Fallible matrix multiplication.
    pub fn try_matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_from_row(0, other)
    }

    /// Multiplies the rows `start..` of `self` by `other`, reading them in
    /// place: `self[start..] (m x k) * other (k x n) -> (m x n)`. Bit-identical
    /// to `self.slice_rows(start, self.rows())?.matmul(other)`.
    pub fn matmul_from_row(&self, start: usize, other: &Tensor) -> Result<Tensor> {
        let a = self.rows_from(start, "matmul")?;
        if self.cols() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                lhs: (self.rows() - start, self.cols()),
                rhs: other.shape(),
                op: "matmul",
            });
        }
        let mut out = Tensor::zeros(self.rows() - start, other.cols());
        gemm_acc(a, self.cols(), other.data(), other.cols(), out.data_mut());
        Ok(out)
    }

    /// Transpose-free `selfᵀ (k x m) * other (m x n) -> (k x n)`, the weight
    /// gradient GEMM. Bit-identical to `self.transpose().matmul(other)`.
    pub fn transpose_matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.transpose_matmul_from_row(0, other)
    }

    /// [`Tensor::transpose_matmul`] of the rows `start..` of `self`, read in
    /// place: `self[start..]ᵀ * other`.
    pub fn transpose_matmul_from_row(&self, start: usize, other: &Tensor) -> Result<Tensor> {
        let a = self.rows_from(start, "transpose_matmul")?;
        if self.rows() - start != other.rows() {
            return Err(TensorError::ShapeMismatch {
                lhs: (self.cols(), self.rows() - start),
                rhs: other.shape(),
                op: "transpose_matmul",
            });
        }
        let mut out = Tensor::zeros(self.cols(), other.cols());
        gemm_tn_acc(a, self.cols(), other.data(), other.cols(), out.data_mut());
        Ok(out)
    }

    /// The row-major data of rows `start..`.
    fn rows_from(&self, start: usize, op: &'static str) -> Result<&[f32]> {
        if start > self.rows() {
            return Err(TensorError::IndexOutOfBounds {
                index: start,
                bound: self.rows(),
                op,
            });
        }
        Ok(&self.data()[start * self.cols()..])
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Adds `other` to `self` in place.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op: "add_assign",
            });
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        let data = self.data().iter().map(|x| x * factor).collect();
        Tensor::from_vec(data, self.rows(), self.cols())
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_assign(&mut self, factor: f32) {
        for x in self.data_mut() {
            *x *= factor;
        }
    }

    /// Adds the single-row tensor `bias` to every row of `self` (broadcast add).
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        if bias.rows() != 1 || bias.cols() != self.cols() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: bias.shape(),
                op: "add_row_broadcast",
            });
        }
        let mut out = self.clone();
        let b = bias.row(0).to_vec();
        for r in 0..out.rows() {
            for (x, bv) in out.row_mut(r).iter_mut().zip(b.iter()) {
                *x += *bv;
            }
        }
        Ok(out)
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Gradient mask of ReLU: 1 where the (pre-activation) input was positive.
    pub fn relu_grad_mask(&self) -> Tensor {
        self.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Element-wise sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(|x| x.tanh())
    }

    /// Leaky ReLU with the given negative slope (used by GAT attention scores).
    pub fn leaky_relu(&self, negative_slope: f32) -> Tensor {
        self.map(|x| if x >= 0.0 { x } else { negative_slope * x })
    }

    /// Gradient mask of leaky ReLU.
    pub fn leaky_relu_grad_mask(&self, negative_slope: f32) -> Tensor {
        self.map(|x| if x >= 0.0 { 1.0 } else { negative_slope })
    }

    /// Row-wise softmax (numerically stabilised by subtracting the row max).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
        out
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
            for x in row.iter_mut() {
                *x = *x - max - log_sum;
            }
        }
        out
    }

    /// Normalises each row to unit L2 norm; zero rows are left untouched.
    pub fn l2_normalize_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let norm = out.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in out.row_mut(r) {
                    *x /= norm;
                }
            }
        }
        out
    }

    /// Clips every element into `[-bound, bound]` in place (gradient clipping).
    pub fn clip_assign(&mut self, bound: f32) {
        for x in self.data_mut() {
            *x = x.clamp(-bound, bound);
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|x| f(*x)).collect();
        Tensor::from_vec(data, self.rows(), self.cols())
    }

    /// Per-row dot products of two tensors with identical shapes, returned as a
    /// `(rows, 1)` tensor. Used by the DistMult decoder.
    pub fn rowwise_dot(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op: "rowwise_dot",
            });
        }
        let mut out = Tensor::zeros(self.rows(), 1);
        for r in 0..self.rows() {
            let dot = self
                .row(r)
                .iter()
                .zip(other.row(r).iter())
                .map(|(a, b)| a * b)
                .sum();
            out.set(r, 0, dot);
        }
        Ok(out)
    }

    /// Sums the rows of `self`, returning a single-row tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols());
        for r in 0..self.rows() {
            for (o, x) in out.row_mut(0).iter_mut().zip(self.row(r).iter()) {
                *o += *x;
            }
        }
        out
    }

    /// Returns per-row sums as a `(rows, 1)` tensor.
    pub fn sum_cols(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), 1);
        for r in 0..self.rows() {
            out.set(r, 0, self.row(r).iter().sum());
        }
        out
    }

    fn zip_with(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: other.shape(),
                op,
            });
        }
        let data = self
            .data()
            .iter()
            .zip(other.data().iter())
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Tensor::from_vec(data, self.rows(), self.cols()))
    }
}

/// `out (m x n) += a (m x k) * b (k x n)` over row-major slices, in ikj
/// order: each output element sums its products in ascending `p`, starting
/// from the value already in `out`. A zero `a[i][p]` contributes nothing, not
/// even `0 * inf = NaN` or the sign of `0 * -x`; the skip is part of the
/// result's bits, so every GEMM here keeps it.
fn gemm_acc(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if k == 0 || n == 0 {
        return;
    }
    match n {
        8 => gemm_acc_in_registers::<8>(a, k, b, out, many_zeros(a)),
        _ => {
            for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                for (&x, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                    if x != 0.0 {
                        axpy(x, b_row, out_row);
                    }
                }
            }
        }
    }
}

/// [`gemm_acc`] for outputs `N` wide, which keeps each output row in
/// registers while it sums over `p` (same per-element order and zero skip).
fn gemm_acc_in_registers<const N: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    out: &mut [f32],
    branch_free: bool,
) {
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(N)) {
        let mut acc = lanes::<N>(out_row);
        for (&x, b_row) in a_row.iter().zip(b.chunks_exact(N)) {
            madd_unless_zero(&mut acc, x, b_row, branch_free);
        }
        out_row.copy_from_slice(&acc);
    }
}

/// `out (k x n) += aᵀ * b` for `a (m x k)` and `b (m x n)`: every output
/// element still sums its products in ascending `p` with the zero skip of
/// [`gemm_acc`].
fn gemm_tn_acc(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if k == 0 || n == 0 {
        return;
    }
    match n {
        8 => gemm_tn_acc_in_registers::<8>(a, k, b, out, many_zeros(a)),
        // One rank-1 update per shared row p.
        _ => {
            for (a_row, b_row) in a.chunks_exact(k).zip(b.chunks_exact(n)) {
                for (&x, out_row) in a_row.iter().zip(out.chunks_exact_mut(n)) {
                    if x != 0.0 {
                        axpy(x, b_row, out_row);
                    }
                }
            }
        }
    }
}

/// Shared rows per tile of [`gemm_tn_acc_in_registers`]: the tile of `b`
/// (8 KiB at `N = 8`) stays in L1 while the `k` output rows sweep it.
const TN_TILE_ROWS: usize = 256;

/// [`gemm_tn_acc`] for outputs `N` wide: output row `i` is summed in
/// registers over a tile of shared rows, tile after tile, so each element
/// still adds its products in ascending `p`.
fn gemm_tn_acc_in_registers<const N: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    out: &mut [f32],
    branch_free: bool,
) {
    for (a_tile, b_tile) in a.chunks(TN_TILE_ROWS * k).zip(b.chunks(TN_TILE_ROWS * N)) {
        for (i, out_row) in out.chunks_exact_mut(N).enumerate() {
            let mut acc = lanes::<N>(out_row);
            for (a_row, b_row) in a_tile.chunks_exact(k).zip(b_tile.chunks_exact(N)) {
                madd_unless_zero(&mut acc, a_row[i], b_row, branch_free);
            }
            out_row.copy_from_slice(&acc);
        }
    }
}

/// Whether more than an eighth of `a` is zero, as in a ReLU-masked operand
/// (about half zeros, in no predictable pattern). A branch on each entry of
/// such an operand mispredicts often enough to triple a GEMM's time, so the
/// register kernels then skip zeros with a select instead; on an operand with
/// few zeros the branch is predicted and cheaper than the select. For an
/// 889x8 by 8x8 product (the `train_sage` batch) on an x86-64 VM, over fresh
/// operands each call: with no zeros the branch takes 7–12 µs and the select
/// 15–28 µs; with half zeros the branch takes 44–47 µs and the select 17 µs;
/// the two meet near an eighth zeros. This scan costs about 3 µs.
fn many_zeros(a: &[f32]) -> bool {
    a.iter().filter(|&&x| x == 0.0).count() * 8 > a.len()
}

/// `acc += x * b_row`, unless `x` is zero: with a branch, or with a select
/// when `branch_free`. Both skip exactly the same products.
#[inline(always)]
fn madd_unless_zero<const N: usize>(acc: &mut [f32; N], x: f32, b_row: &[f32], branch_free: bool) {
    let b_row: &[f32; N] = b_row.try_into().expect("row is N wide");
    if branch_free {
        let mut next = *acc;
        axpy(x, b_row, &mut next);
        *acc = std::hint::select_unpredictable(x != 0.0, next, *acc);
    } else if x != 0.0 {
        axpy(x, b_row, acc);
    }
}

/// Copies an `N`-wide row into a fixed-size array the compiler can keep in
/// registers.
#[inline(always)]
pub(crate) fn lanes<const N: usize>(row: &[f32]) -> [f32; N] {
    row.try_into().expect("row is N wide")
}

/// `dst += x * src`, element by element.
#[inline(always)]
fn axpy(x: f32, src: &[f32], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += x * s;
    }
}

/// Number of floating point operations needed for a GEMM of the given shape.
///
/// Used by the device cost model and the benchmark harnesses to report arithmetic
/// intensity next to wall-clock time.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert!(approx_eq(c.get(0, 0), 58.0));
        assert!(approx_eq(c.get(0, 1), 64.0));
        assert!(approx_eq(c.get(1, 0), 139.0));
        assert!(approx_eq(c.get(1, 1), 154.0));
    }

    #[test]
    fn try_matmul_shape_mismatch_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[2.0, 2.0]);
        assert_eq!(a.mul(&b).unwrap().row(0), &[3.0, 8.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_errors() {
        let a = Tensor::zeros(1, 2);
        let b = Tensor::zeros(2, 1);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.rowwise_dot(&b).is_err());
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.sum(), 12.0);
        assert!(a.add_assign(&Tensor::zeros(3, 3)).is_err());
    }

    #[test]
    fn scale_and_scale_assign() {
        let a = Tensor::ones(2, 2);
        assert_eq!(a.scale(3.0).sum(), 12.0);
        let mut b = Tensor::ones(2, 2);
        b.scale_assign(0.5);
        assert_eq!(b.sum(), 2.0);
    }

    #[test]
    fn broadcast_add_bias() {
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let bias = Tensor::from_rows(&[&[10.0, 20.0]]);
        let out = a.add_row_broadcast(&bias).unwrap();
        assert_eq!(out.row(0), &[11.0, 21.0]);
        assert_eq!(out.row(1), &[12.0, 22.0]);
        assert!(a.add_row_broadcast(&Tensor::zeros(2, 2)).is_err());
    }

    #[test]
    fn relu_and_grad_mask() {
        let a = Tensor::from_rows(&[&[-1.0, 0.0, 2.0]]);
        assert_eq!(a.relu().row(0), &[0.0, 0.0, 2.0]);
        assert_eq!(a.relu_grad_mask().row(0), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_behaviour() {
        let a = Tensor::from_rows(&[&[-2.0, 3.0]]);
        let out = a.leaky_relu(0.1);
        assert!(approx_eq(out.get(0, 0), -0.2));
        assert_eq!(out.get(0, 1), 3.0);
        let mask = a.leaky_relu_grad_mask(0.1);
        assert!(approx_eq(mask.get(0, 0), 0.1));
        assert_eq!(mask.get(0, 1), 1.0);
    }

    #[test]
    fn sigmoid_and_tanh_bounds() {
        let a = Tensor::from_rows(&[&[-50.0, 0.0, 50.0]]);
        let s = a.sigmoid();
        assert!(s.get(0, 0) < 1e-6);
        assert!(approx_eq(s.get(0, 1), 0.5));
        assert!(s.get(0, 2) > 1.0 - 1e-6);
        let t = a.tanh();
        assert!(t.get(0, 0) < -0.999);
        assert!(approx_eq(t.get(0, 1), 0.0));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!(approx_eq(sum, 1.0));
        }
        // Row of equal large values must not overflow and be uniform.
        assert!(approx_eq(s.get(1, 0), 1.0 / 3.0));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = Tensor::from_rows(&[&[0.5, -1.0, 2.0]]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for c in 0..3 {
            assert!(approx_eq(ls.get(0, c), s.get(0, c).ln()));
        }
    }

    #[test]
    fn l2_normalize_rows_skips_zero_rows() {
        let a = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        let n = a.l2_normalize_rows();
        assert!(approx_eq(n.row(0).iter().map(|x| x * x).sum::<f32>(), 1.0));
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn clip_assign_bounds_values() {
        let mut a = Tensor::from_rows(&[&[-10.0, 0.5, 10.0]]);
        a.clip_assign(1.0);
        assert_eq!(a.row(0), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn rowwise_dot_matches_manual() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let d = a.rowwise_dot(&b).unwrap();
        assert_eq!(d.get(0, 0), 17.0);
        assert_eq!(d.get(1, 0), 53.0);
    }

    #[test]
    fn sum_rows_and_cols() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_rows().row(0), &[4.0, 6.0]);
        let sc = a.sum_cols();
        assert_eq!(sc.get(0, 0), 3.0);
        assert_eq!(sc.get(1, 0), 7.0);
    }

    #[test]
    fn matmul_flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }
}
