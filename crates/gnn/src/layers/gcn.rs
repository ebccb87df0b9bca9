//! A GCN-style layer (Kipf & Welling, 2016) over DENSE samples.
//!
//! `h_out = act( W · ( (h_self + Σ h_nbrs) / (deg + 1) ) + b )` — a single shared
//! projection over the degree-normalised sum of the node itself and its sampled
//! neighbours. Included as the third encoder option referenced in the paper's
//! related-work discussion and used by the ablation benches.

use super::{add_into_rows, GnnLayer, LayerCache, LayerContext};
use crate::optimizer::Param;
use marius_tensor::segment::{gather_segment_sum, segment_scatter_add};
use marius_tensor::{glorot_uniform, Tensor};
use rand::Rng;

/// A GCN encoder layer with mean-style normalisation over the sampled closed
/// neighbourhood (self plus neighbours).
#[derive(Debug)]
pub struct GcnLayer {
    weight: Param,
    bias: Param,
    activation: bool,
    in_dim: usize,
    out_dim: usize,
}

impl GcnLayer {
    /// Creates a GCN layer with Glorot-initialised weights.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: bool,
        rng: &mut R,
    ) -> Self {
        GcnLayer {
            weight: Param::new("gcn.weight", glorot_uniform(rng, in_dim, out_dim)),
            bias: Param::new("gcn.bias", Tensor::zeros(1, out_dim)),
            activation,
            in_dim,
            out_dim,
        }
    }

    /// Normalisation factor per output node: `1 / (deg + 1)`.
    fn norms(ctx: &LayerContext) -> Vec<f32> {
        ctx.segment_counts()
            .iter()
            .map(|&c| 1.0 / (c as f32 + 1.0))
            .collect()
    }
}

impl GnnLayer for GcnLayer {
    fn forward(&self, ctx: &LayerContext, input: &Tensor) -> (Tensor, LayerCache) {
        let mut combined = gather_segment_sum(input, &ctx.repr_map, &ctx.nbr_offsets)
            .expect("DENSE repr_map and offsets are valid for the layer input");
        assert_eq!(
            input.rows().checked_sub(ctx.self_offset),
            Some(combined.rows()),
            "one self row per neighbour segment"
        );
        // Add each node's own row, read in place, then normalise.
        let norms = Self::norms(ctx);
        for (j, &n) in norms.iter().enumerate() {
            let self_row = input.row(ctx.self_offset + j);
            for (x, &h) in combined.row_mut(j).iter_mut().zip(self_row) {
                *x = (*x + h) * n;
            }
        }
        let pre = combined
            .matmul(&self.weight.value)
            .add_row_broadcast(&self.bias.value)
            .expect("bias dims");
        let out = if self.activation {
            pre.relu()
        } else {
            pre.clone()
        };
        (out, LayerCache::new(vec![combined, pre]))
    }

    fn backward(
        &mut self,
        ctx: &LayerContext,
        cache: &LayerCache,
        _input: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor {
        let combined = &cache.tensors[0];
        let pre = &cache.tensors[1];

        let grad_pre = if self.activation {
            grad_output
                .mul(&pre.relu_grad_mask())
                .expect("activation mask shape")
        } else {
            grad_output.clone()
        };

        self.bias.accumulate_grad(&grad_pre.sum_rows());
        self.weight.accumulate_grad(
            &combined
                .transpose_matmul(&grad_pre)
                .expect("combined rows match grad_pre"),
        );

        // Gradient w.r.t. the normalised combined representation.
        let mut grad_combined = grad_pre.matmul(&self.weight.value.transpose());
        let norms = Self::norms(ctx);
        for (j, &n) in norms.iter().enumerate() {
            for x in grad_combined.row_mut(j) {
                *x *= n;
            }
        }

        // The combined rep is self + Σ neighbours, so the gradient fans out to
        // both with the same value.
        let mut grad_input = segment_scatter_add(
            ctx.num_input_rows,
            &grad_combined,
            &ctx.repr_map,
            &ctx.nbr_offsets,
        )
        .expect("DENSE repr_map and offsets are valid for the layer input");
        add_into_rows(&mut grad_input, ctx.self_offset, &grad_combined);
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn input_dim(&self) -> usize {
        self.in_dim
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn name(&self) -> &'static str {
        "gcn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_context() -> LayerContext {
        LayerContext {
            repr_map: vec![0, 1, 2],
            nbr_offsets: vec![0, 2, 3],
            nbr_rels: vec![0, 0, 0],
            self_offset: 1,
            num_input_rows: 4,
        }
    }

    fn toy_input() -> Tensor {
        Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.5, -0.5]])
    }

    /// An input with a self row more than the context's output rows is a
    /// caller error, not a short output.
    #[test]
    #[should_panic(expected = "one self row per neighbour segment")]
    fn forward_rejects_extra_self_rows() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = GcnLayer::new(2, 2, false, &mut rng);
        let input = toy_input().vstack(&Tensor::zeros(1, 2)).unwrap();
        layer.forward(&toy_context(), &input);
    }

    #[test]
    fn forward_normalises_by_closed_degree() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = GcnLayer::new(2, 2, false, &mut rng);
        layer.weight.value = Tensor::eye(2);
        layer.bias.value = Tensor::zeros(1, 2);
        let (out, _) = layer.forward(&toy_context(), &toy_input());
        // Output 0: (self [0,1] + [1,0] + [0,1]) / 3 = [1/3, 2/3].
        assert!((out.get(0, 0) - 1.0 / 3.0).abs() < 1e-6);
        assert!((out.get(0, 1) - 2.0 / 3.0).abs() < 1e-6);
        // Output 2 has no neighbours: self / 1.
        assert_eq!(out.row(2), &[0.5, -0.5]);
    }

    #[test]
    fn gradient_check_input_and_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = GcnLayer::new(2, 3, true, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
        let (out, cache) = layer.forward(&ctx, &input);
        let grad_out = Tensor::ones(out.rows(), out.cols());
        let grad_input = layer.backward(&ctx, &cache, &input, &grad_out);
        let analytic_w = layer.weight.grad.clone();

        let eps = 1e-3f32;
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = input.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let numeric = (layer.forward(&ctx, &plus).0.sum()
                    - layer.forward(&ctx, &minus).0.sum())
                    / (2.0 * eps);
                assert!(
                    (numeric - grad_input.get(r, c)).abs() < 2e-2,
                    "input grad ({r},{c})"
                );
            }
        }
        for r in 0..2 {
            for c in 0..3 {
                let orig = layer.weight.value.get(r, c);
                layer.weight.value.set(r, c, orig + eps);
                let lp = layer.forward(&ctx, &input).0.sum();
                layer.weight.value.set(r, c, orig - eps);
                let lm = layer.forward(&ctx, &input).0.sum();
                layer.weight.value.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic_w.get(r, c)).abs() < 2e-2,
                    "weight grad ({r},{c})"
                );
            }
        }
    }

    /// The fused forward and backward give the bits of the unfused kernel
    /// chain (`index_select` → `segment_sum`, `slice_rows`, `add`,
    /// `transpose().matmul()`, `segment_expand` → `index_add`) on both layers
    /// of a sampled DENSE batch.
    #[test]
    fn fused_layer_matches_the_unfused_kernel_chain_bit_for_bit() {
        use crate::layers::tests::{assert_bits_eq, sampled_contexts};
        use marius_tensor::segment::{index_add, index_select, segment_expand, segment_sum};
        let (contexts, mut input) = sampled_contexts(11, 8);
        let mut rng = StdRng::seed_from_u64(11);
        for ctx in &contexts {
            let mut layer = GcnLayer::new(8, 8, true, &mut rng);
            layer.bias.value = glorot_uniform(&mut rng, 1, 8);
            let (out, cache) = layer.forward(ctx, &input);
            let grad_out = out.map(|x| x - 0.25);
            let grad_input = layer.backward(ctx, &cache, &input, &grad_out);

            // The unfused chain.
            let nbr_sum = segment_sum(
                &index_select(&input, &ctx.repr_map).unwrap(),
                &ctx.nbr_offsets,
            )
            .unwrap();
            let self_rows = input.slice_rows(ctx.self_offset, input.rows()).unwrap();
            let mut combined = nbr_sum.add(&self_rows).unwrap();
            let norms = GcnLayer::norms(ctx);
            for (j, &n) in norms.iter().enumerate() {
                for x in combined.row_mut(j) {
                    *x *= n;
                }
            }
            let pre = combined
                .matmul(&layer.weight.value)
                .add_row_broadcast(&layer.bias.value)
                .unwrap();
            assert_bits_eq(&out, &pre.relu(), "forward");
            let grad_pre = grad_out.mul(&pre.relu_grad_mask()).unwrap();
            let mut grad_combined = grad_pre.matmul(&layer.weight.value.transpose());
            for (j, &n) in norms.iter().enumerate() {
                for x in grad_combined.row_mut(j) {
                    *x *= n;
                }
            }
            let rows_grad =
                segment_expand(&grad_combined, &ctx.nbr_offsets, ctx.num_edges()).unwrap();
            let mut expected_grad =
                index_add(ctx.num_input_rows, 8, &ctx.repr_map, &rows_grad).unwrap();
            add_into_rows(&mut expected_grad, ctx.self_offset, &grad_combined);
            assert_bits_eq(&grad_input, &expected_grad, "input gradient");
            let weight_grad = Tensor::zeros(8, 8)
                .add(&combined.transpose().matmul(&grad_pre))
                .unwrap();
            assert_bits_eq(&layer.weight.grad, &weight_grad, "weight gradient");
            input = out;
        }
    }

    #[test]
    fn metadata() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = GcnLayer::new(4, 6, true, &mut rng);
        assert_eq!(layer.input_dim(), 4);
        assert_eq!(layer.output_dim(), 6);
        assert_eq!(layer.name(), "gcn");
        assert_eq!(layer.num_parameters(), 4 * 6 + 6);
    }
}
