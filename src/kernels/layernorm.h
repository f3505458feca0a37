// LayerNorm kernels (§IV-B "Dependent Reduction Rewriting").
//
// Forward: the two dependent reductions (mean, then variance-given-mean) are
// rewritten with sigma^2 = E[x^2] - E[x]^2 so both row sums accumulate in a
// single pass; LightSeq2 does the whole forward in one launch where the
// PyTorch-style baseline takes three (mean / var / normalise), re-reading x
// each time.
//
// Backward: the paper rearranges
//   dx_i = w_i dy_i / sigma + alpha_i * S1 + beta_i * S2,
//   S1 = sum_j w_j dy_j,  S2 = sum_j w_j dy_j x_j,
//   alpha_i = ((x_i-mu)mu - sigma^2)/(m sigma^3),  beta_i = (mu-x_i)/(m sigma^3)
// so S1 and S2 are *independent* reductions computed in parallel in one
// kernel, plus one fused kernel for dgamma/dbeta. LightSeq2's released
// launcher runs those two on separate CUDA streams; on this one-stream
// device its layers fold dgamma/dbeta into the dx launch instead.
//
// Row statistics (mean, rstd=1/sigma) are always f32, regardless of the
// activation dtype — the paper notes LayerNorm is precision-sensitive and
// casts FP16 to FP32 during computation.
#pragma once

#include "kernels/dropout.h"  // Impl enum
#include "kernels/kernel_context.h"

namespace ls2::kern {

/// y = gamma * (x - mean) / sigma + beta, row-wise over the last dim.
/// `mean`/`rstd` are per-row f32 outputs kept for the backward pass.
void layernorm_fw(KernelContext& kc, Impl impl, const Tensor& x, const Tensor& gamma,
                  const Tensor& beta, const Tensor& y, const Tensor& mean, const Tensor& rstd,
                  float eps = 1e-5f);

/// Gradients for input and affine parameters. If `residual_grad` is given,
/// dx += residual_grad — Fig. 8's final step "din = dLayerNorm(dY) + dout",
/// fused into the dx kernel for the LightSeq2/DeepSpeed impls and charged as
/// an extra add launch for the baselines. dgamma/dbeta accumulate in FP32
/// from their destination. `fold_param_grads` (LightSeq2's
/// Policy::fold_bias_grad; fused impls only) reduces them in the dx launch,
/// bitwise the separate layernorm_bw_dparam launch's values.
void layernorm_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& x,
                  const Tensor& gamma, const Tensor& mean, const Tensor& rstd,
                  const Tensor& dx, const Tensor& dgamma, const Tensor& dbeta,
                  const Tensor* residual_grad = nullptr, bool fold_param_grads = false);

}  // namespace ls2::kern
