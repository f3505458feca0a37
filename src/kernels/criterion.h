// Criterion layer kernels (§IV-A.3): label-smoothed cross entropy.
//
// With smoothing alpha over vocabulary V, target k and q = softmax(h):
//   L = -(1-alpha) log q_k - (alpha/V) sum_i log q_i
// and the paper derives the closed-form gradient
//   dL/dh_i = q_i - alpha/V - (1-alpha) * [i == k],
// which needs only the row's (max, log Z) (computing log-softmax, never
// materialising q). LightSeq2 evaluates it in its forward launch, over the
// row that launch has just reduced and still holds on chip, writing the
// gradient in place over the logits (as Liger-Kernel's fused cross entropy
// does). The baseline decomposition launches softmax / log / gather-NLL /
// smooth-sum forward and four kernels backward, materialising a
// [tokens, V] probability tensor both ways.
//
// Rows whose target equals `ignore_index` (padding) contribute zero loss
// and zero gradient.
#pragma once

#include "kernels/dropout.h"  // Impl
#include "kernels/kernel_context.h"

namespace ls2::kern {

/// logits: [rows, V]; targets: [rows] i32; loss: [rows] f32 per-token loss;
/// stats: [rows, 2] f32 caching (row_max, log Z) for the backward pass.
/// A defined `dlogits` (LightSeq2 only; the baselines throw) also receives
/// the gradient ls_cross_entropy_bw defines, from the same launch and
/// bitwise its values; it may be `logits` itself, each element read before
/// its gradient overwrites it.
void ls_cross_entropy_fw(KernelContext& kc, Impl impl, const Tensor& logits,
                         const Tensor& targets, const Tensor& loss, const Tensor& stats,
                         float alpha, int32_t ignore_index = -1, const Tensor& dlogits = {},
                         float grad_scale = 1.0f);

/// dlogits_i = grad_scale * (q_i - alpha/V - (1-alpha)[i==k]) per valid row,
/// zero on ignored rows: the baselines' backward decomposition. LightSeq2
/// writes this gradient from its forward launch and throws here.
void ls_cross_entropy_bw(KernelContext& kc, Impl impl, const Tensor& logits,
                         const Tensor& targets, const Tensor& stats, const Tensor& dlogits,
                         float alpha, float grad_scale, int32_t ignore_index = -1);

/// Scalar reduction helper: out[0] = sum(x) (f32). One small launch; used to
/// turn per-token losses into the batch loss. When `carry` is non-null the
/// double accumulator starts from — and is written back to — *carry, so
/// consecutive calls over microbatch slices reproduce the full-batch
/// reduction bitwise (out[0] holds the running total's float cast).
void reduce_sum(KernelContext& kc, const Tensor& x, const Tensor& out,
                double* carry = nullptr);

}  // namespace ls2::kern
