//! The GraphSage layer (Hamilton et al., 2017) over DENSE samples.
//!
//! `h_out = act( (h_self · W_self + AGG(h_nbrs) · W_nbr) + b )` where `AGG` is a
//! mean or sum over the node's sampled one-hop neighbours. This is the model used
//! for most of the paper's end-to-end experiments (Tables 3–6, 8).
//!
//! Forward runs Algorithm 3 as three kernels: the fused gather + segment
//! reduce over the `repr_map` ([`gather_segment_mean`] / [`gather_segment_sum`]),
//! the two projections (the self rows are read in place from the layer input),
//! and one pass adding them and the bias row by row, in that association order.
//! Backward mirrors it: transpose-free weight-gradient GEMMs
//! ([`Tensor::transpose_matmul`]), the input-gradient GEMMs, and the fused
//! [`segment_scatter_add`] back onto the gathered rows.

use super::{add_into_rows, GnnLayer, LayerCache, LayerContext};
use crate::optimizer::Param;
use marius_tensor::segment::{gather_segment_mean, gather_segment_sum, segment_scatter_add};
use marius_tensor::{glorot_uniform, Tensor};
use rand::Rng;

/// Neighbour aggregation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// Average the sampled neighbour representations (GraphSage-mean).
    Mean,
    /// Sum the sampled neighbour representations (the additive aggregation of
    /// Algorithm 3 in the paper).
    Sum,
}

/// A GraphSage encoder layer.
#[derive(Debug)]
pub struct GraphSageLayer {
    w_self: Param,
    w_nbr: Param,
    bias: Param,
    aggregator: Aggregator,
    activation: bool,
    in_dim: usize,
    out_dim: usize,
}

impl GraphSageLayer {
    /// Creates a GraphSage layer with Glorot-initialised weights.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        aggregator: Aggregator,
        activation: bool,
        rng: &mut R,
    ) -> Self {
        GraphSageLayer {
            w_self: Param::new("sage.w_self", glorot_uniform(rng, in_dim, out_dim)),
            w_nbr: Param::new("sage.w_nbr", glorot_uniform(rng, in_dim, out_dim)),
            bias: Param::new("sage.bias", Tensor::zeros(1, out_dim)),
            aggregator,
            activation,
            in_dim,
            out_dim,
        }
    }

    /// The configured aggregator.
    pub fn aggregator(&self) -> Aggregator {
        self.aggregator
    }

    fn aggregate(&self, input: &Tensor, ctx: &LayerContext) -> Tensor {
        match self.aggregator {
            Aggregator::Mean => gather_segment_mean(input, &ctx.repr_map, &ctx.nbr_offsets),
            Aggregator::Sum => gather_segment_sum(input, &ctx.repr_map, &ctx.nbr_offsets),
        }
        .expect("DENSE repr_map and offsets are valid for the layer input")
    }
}

impl GnnLayer for GraphSageLayer {
    fn forward(&self, ctx: &LayerContext, input: &Tensor) -> (Tensor, LayerCache) {
        // Algorithm 3: gather + reduce neighbour rows, combine with self.
        let nbr_aggr = self.aggregate(input, ctx);
        let mut pre = input
            .matmul_from_row(ctx.self_offset, &self.w_self.value)
            .expect("self rows match w_self");
        let nbr_proj = nbr_aggr.matmul(&self.w_nbr.value);
        assert_eq!(
            pre.rows(),
            nbr_proj.rows(),
            "one self row per neighbour segment"
        );
        let bias = self.bias.value.row(0);
        for (p, n) in pre
            .data_mut()
            .chunks_exact_mut(self.out_dim)
            .zip(nbr_proj.data().chunks_exact(self.out_dim))
        {
            for ((p, &n), &b) in p.iter_mut().zip(n).zip(bias) {
                *p = (*p + n) + b;
            }
        }
        let out = if self.activation {
            pre.relu()
        } else {
            pre.clone()
        };
        (out, LayerCache::new(vec![nbr_aggr, pre]))
    }

    fn backward(
        &mut self,
        ctx: &LayerContext,
        cache: &LayerCache,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> Tensor {
        let nbr_aggr = &cache.tensors[0];
        let pre = &cache.tensors[1];

        // Activation backward.
        let grad_pre = if self.activation {
            grad_output
                .mul(&pre.relu_grad_mask())
                .expect("activation mask shape")
        } else {
            grad_output.clone()
        };

        // Parameter gradients.
        self.bias.accumulate_grad(&grad_pre.sum_rows());
        self.w_self.accumulate_grad(
            &input
                .transpose_matmul_from_row(ctx.self_offset, &grad_pre)
                .expect("self rows match grad_pre"),
        );
        self.w_nbr.accumulate_grad(
            &nbr_aggr
                .transpose_matmul(&grad_pre)
                .expect("aggregate rows match grad_pre"),
        );

        // Gradients flowing to the layer input.
        let grad_self = grad_pre.matmul(&self.w_self.value.transpose());
        let mut grad_aggr = grad_pre.matmul(&self.w_nbr.value.transpose());

        // Undo the segment reduction: mean divides by the segment length.
        if self.aggregator == Aggregator::Mean {
            for (j, c) in ctx.segment_counts().into_iter().enumerate() {
                if c > 1 {
                    let inv = 1.0 / c as f32;
                    for x in grad_aggr.row_mut(j) {
                        *x *= inv;
                    }
                }
            }
        }
        let mut grad_input = segment_scatter_add(
            ctx.num_input_rows,
            &grad_aggr,
            &ctx.repr_map,
            &ctx.nbr_offsets,
        )
        .expect("DENSE repr_map and offsets are valid for the layer input");
        add_into_rows(&mut grad_input, ctx.self_offset, &grad_self);
        grad_input
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w_self, &self.w_nbr, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_nbr, &mut self.bias]
    }

    fn input_dim(&self) -> usize {
        self.in_dim
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn name(&self) -> &'static str {
        "graphsage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A context with 4 input rows, 3 output rows, and neighbour lists:
    /// output 0 -> inputs [0, 1]; output 1 -> input [2]; output 2 -> [].
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

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GraphSageLayer::new(2, 3, Aggregator::Mean, true, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
        let (out1, _) = layer.forward(&ctx, &input);
        let (out2, _) = layer.forward(&ctx, &input);
        assert_eq!(out1.shape(), (3, 3));
        assert_eq!(out1, out2);
        assert!(out1.all_finite());
        // ReLU output is non-negative.
        assert!(out1.min() >= 0.0);
    }

    /// An input with a self row more than the context's output rows is a
    /// caller error, not a short output.
    #[test]
    #[should_panic(expected = "one self row per neighbour segment")]
    fn forward_rejects_extra_self_rows() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = GraphSageLayer::new(2, 3, Aggregator::Mean, true, &mut rng);
        let input = toy_input().vstack(&Tensor::zeros(1, 2)).unwrap();
        layer.forward(&toy_context(), &input);
    }

    #[test]
    fn forward_with_identity_weights_matches_manual_aggregation() {
        // Use sum aggregation, no activation, identity weights, zero bias.
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = GraphSageLayer::new(2, 2, Aggregator::Sum, false, &mut rng);
        layer.w_self.value = Tensor::eye(2);
        layer.w_nbr.value = Tensor::eye(2);
        layer.bias.value = Tensor::zeros(1, 2);
        let ctx = toy_context();
        let input = toy_input();
        let (out, _) = layer.forward(&ctx, &input);
        // Output row 0 = self (input row 1) + sum of inputs 0 and 1 = [1,1]+[0,1]... wait:
        // self rows are input rows 1..4; output 0's self is input row 1 = [0,1];
        // neighbours are inputs 0 and 1 -> [1,0]+[0,1] = [1,1]; total [1,2].
        assert_eq!(out.row(0), &[1.0, 2.0]);
        // Output 1: self = input 2 = [1,1]; neighbour = input 2 = [1,1]; total [2,2].
        assert_eq!(out.row(1), &[2.0, 2.0]);
        // Output 2: self = input 3 = [0.5,-0.5]; no neighbours.
        assert_eq!(out.row(2), &[0.5, -0.5]);
    }

    /// Finite-difference gradient check of the input gradient.
    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        for aggregator in [Aggregator::Mean, Aggregator::Sum] {
            let mut layer = GraphSageLayer::new(2, 3, aggregator, true, &mut rng);
            let ctx = toy_context();
            let input = toy_input();
            // Scalar objective: sum of all outputs.
            let (out, cache) = layer.forward(&ctx, &input);
            let grad_out = Tensor::ones(out.rows(), out.cols());
            let grad_input = layer.backward(&ctx, &cache, &input, &grad_out);

            let eps = 1e-3f32;
            for r in 0..input.rows() {
                for c in 0..input.cols() {
                    let mut plus = input.clone();
                    plus.set(r, c, plus.get(r, c) + eps);
                    let mut minus = input.clone();
                    minus.set(r, c, minus.get(r, c) - eps);
                    let lp = layer.forward(&ctx, &plus).0.sum();
                    let lm = layer.forward(&ctx, &minus).0.sum();
                    let numeric = (lp - lm) / (2.0 * eps);
                    let analytic = grad_input.get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "{aggregator:?} input grad ({r},{c}): numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    /// Finite-difference gradient check of the weight gradients.
    #[test]
    fn backward_weight_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = GraphSageLayer::new(2, 2, Aggregator::Mean, false, &mut rng);
        let ctx = toy_context();
        let input = toy_input();
        let (out, cache) = layer.forward(&ctx, &input);
        let grad_out = Tensor::ones(out.rows(), out.cols());
        let _ = layer.backward(&ctx, &cache, &input, &grad_out);
        let analytic_w_self = layer.w_self.grad.clone();
        let analytic_w_nbr = layer.w_nbr.grad.clone();
        let analytic_bias = layer.bias.grad.clone();

        let eps = 1e-3f32;
        // Check a few entries of each parameter.
        for (pick, analytic) in [(0usize, &analytic_w_self), (1, &analytic_w_nbr)] {
            for r in 0..2 {
                for c in 0..2 {
                    let orig = if pick == 0 {
                        layer.w_self.value.get(r, c)
                    } else {
                        layer.w_nbr.value.get(r, c)
                    };
                    let set = |layer: &mut GraphSageLayer, v: f32| {
                        if pick == 0 {
                            layer.w_self.value.set(r, c, v);
                        } else {
                            layer.w_nbr.value.set(r, c, v);
                        }
                    };
                    set(&mut layer, orig + eps);
                    let lp = layer.forward(&ctx, &input).0.sum();
                    set(&mut layer, orig - eps);
                    let lm = layer.forward(&ctx, &input).0.sum();
                    set(&mut layer, orig);
                    let numeric = (lp - lm) / (2.0 * eps);
                    assert!(
                        (numeric - analytic.get(r, c)).abs() < 2e-2,
                        "param {pick} ({r},{c}): numeric {numeric} vs analytic {}",
                        analytic.get(r, c)
                    );
                }
            }
        }
        // Bias gradient for an all-ones upstream gradient is the number of output rows.
        assert!((analytic_bias.get(0, 0) - 3.0).abs() < 1e-4);
    }

    /// The layer's fused kernels give the bits of the unfused kernel chain
    /// (`index_select` → `segment_{mean,sum}`, `slice_rows` and whole-matrix
    /// projections, `transpose().matmul()`, `segment_expand` → `index_add`)
    /// on both layers of a sampled DENSE batch.
    #[test]
    fn fused_layer_matches_the_unfused_kernel_chain_bit_for_bit() {
        use crate::layers::tests::{assert_bits_eq, sampled_contexts};
        use marius_tensor::segment::{
            index_add, index_select, segment_expand, segment_mean, segment_sum,
        };
        for (seed, aggregator, activation, dim) in [
            (7, Aggregator::Mean, true, 8),
            (8, Aggregator::Sum, true, 16),
            (9, Aggregator::Mean, false, 5),
        ] {
            let (contexts, mut input) = sampled_contexts(seed, dim);
            let mut rng = StdRng::seed_from_u64(seed);
            for ctx in &contexts {
                let mut layer = GraphSageLayer::new(dim, dim, aggregator, activation, &mut rng);
                layer.bias.value = glorot_uniform(&mut rng, 1, dim);
                let (out, cache) = layer.forward(ctx, &input);
                let grad_out = out.map(|x| x - 0.25);
                let grad_input = layer.backward(ctx, &cache, &input, &grad_out);

                // The unfused chain.
                let gathered = index_select(&input, &ctx.repr_map).unwrap();
                let aggr = match aggregator {
                    Aggregator::Mean => segment_mean(&gathered, &ctx.nbr_offsets).unwrap(),
                    Aggregator::Sum => segment_sum(&gathered, &ctx.nbr_offsets).unwrap(),
                };
                let self_rows = input.slice_rows(ctx.self_offset, input.rows()).unwrap();
                let pre = self_rows
                    .matmul(&layer.w_self.value)
                    .add(&aggr.matmul(&layer.w_nbr.value))
                    .unwrap()
                    .add_row_broadcast(&layer.bias.value)
                    .unwrap();
                let expected_out = if activation { pre.relu() } else { pre.clone() };
                assert_bits_eq(&out, &expected_out, "forward");
                let grad_pre = if activation {
                    grad_out.mul(&pre.relu_grad_mask()).unwrap()
                } else {
                    grad_out.clone()
                };
                let mut grad_aggr = grad_pre.matmul(&layer.w_nbr.value.transpose());
                if aggregator == Aggregator::Mean {
                    for (j, c) in ctx.segment_counts().into_iter().enumerate() {
                        if c > 1 {
                            let inv = 1.0 / c as f32;
                            for x in grad_aggr.row_mut(j) {
                                *x *= inv;
                            }
                        }
                    }
                }
                let rows_grad =
                    segment_expand(&grad_aggr, &ctx.nbr_offsets, ctx.num_edges()).unwrap();
                let mut expected_grad =
                    index_add(ctx.num_input_rows, dim, &ctx.repr_map, &rows_grad).unwrap();
                let grad_self = grad_pre.matmul(&layer.w_self.value.transpose());
                add_into_rows(&mut expected_grad, ctx.self_offset, &grad_self);
                assert_bits_eq(&grad_input, &expected_grad, "input gradient");
                let zero = Tensor::zeros(dim, dim);
                let w_self_grad = zero.add(&self_rows.transpose().matmul(&grad_pre)).unwrap();
                let w_nbr_grad = zero.add(&aggr.transpose().matmul(&grad_pre)).unwrap();
                assert_bits_eq(&layer.w_self.grad, &w_self_grad, "w_self gradient");
                assert_bits_eq(&layer.w_nbr.grad, &w_nbr_grad, "w_nbr gradient");
                input = out;
            }
        }
    }

    #[test]
    fn trait_metadata() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GraphSageLayer::new(8, 4, Aggregator::Mean, true, &mut rng);
        assert_eq!(layer.input_dim(), 8);
        assert_eq!(layer.output_dim(), 4);
        assert_eq!(layer.name(), "graphsage");
        assert_eq!(layer.num_parameters(), 8 * 4 * 2 + 4);
        assert_eq!(layer.params().len(), 3);
        assert_eq!(layer.aggregator(), Aggregator::Mean);
    }

    #[test]
    fn empty_neighbourhoods_do_not_break_forward_or_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = GraphSageLayer::new(2, 2, Aggregator::Mean, true, &mut rng);
        // Single target, no neighbours at all.
        let ctx = LayerContext {
            repr_map: vec![],
            nbr_offsets: vec![0],
            nbr_rels: vec![],
            self_offset: 0,
            num_input_rows: 1,
        };
        let input = Tensor::from_rows(&[&[1.0, -1.0]]);
        let (out, cache) = layer.forward(&ctx, &input);
        assert_eq!(out.shape(), (1, 2));
        let grad = layer.backward(&ctx, &cache, &input, &Tensor::ones(1, 2));
        assert_eq!(grad.shape(), (1, 2));
        assert!(grad.all_finite());
    }
}
