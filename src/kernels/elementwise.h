// Element-wise kernels.
//
// `baseline::` mirrors what PyTorch/TensorFlow execution does for a
// Transformer block: one kernel launch per primitive op, each reading and
// writing full tensors through global memory.
// `fused::` are the LightSeq2 replacements (§IV-A, Fig. 4): adjacent
// element-wise ops collapse into one launch with one read and one write —
// e.g. "bias adding & dropout & residual" is a single kernel. Their backward
// kernels can also reduce the bias gradient in the same pass (an optional
// `dbias`; see bias_grad). Handed the GEMM that produces their input (a
// gemm::GemmLaunch whose output is that input), the bias chains run as the
// GEMM's epilogue: one launch under the GEMM's tag that computes the GEMM
// and then the chain over its output, which never makes a second trip
// through device memory.
//
// All kernels accept f32 or f16 tensors; f16 math is performed in f32
// registers (on-the-fly conversion).
#pragma once

#include <functional>
#include <vector>

#include "gemm/gemm_device.h"
#include "kernels/dropout.h"  // Impl
#include "kernels/kernel_context.h"

namespace ls2::kern {

namespace baseline {

/// y = x + bias (bias broadcast along rows).
void add_bias(KernelContext& kc, const Tensor& x, const Tensor& bias, const Tensor& y);
/// y = max(x, 0).
void relu_fw(KernelContext& kc, const Tensor& x, const Tensor& y);
/// dx = dy * (x > 0).
void relu_bw(KernelContext& kc, const Tensor& dy, const Tensor& x, const Tensor& dx);
/// y = gelu(x), tanh approximation.
void gelu_fw(KernelContext& kc, const Tensor& x, const Tensor& y);
/// dx = dy * gelu'(x).
void gelu_bw(KernelContext& kc, const Tensor& dy, const Tensor& x, const Tensor& dx);
/// y = a + b.
void add(KernelContext& kc, const Tensor& a, const Tensor& b, const Tensor& y);
/// y = x * s.
void scale(KernelContext& kc, const Tensor& x, const Tensor& y, float s);
/// Dtype-converting copy (the fp16<->fp32 "copy kernels" of Fig. 6a).
void cast(KernelContext& kc, const Tensor& x, const Tensor& y);
/// y = 0 (a real launch — zeroing gradients costs a kernel).
void zero(KernelContext& kc, const Tensor& y);

}  // namespace baseline

namespace fused {

// Every bias chain takes an optional `gemm`, the GEMM whose output C is the
// chain's input (x forward, dy backward). Given one, the chain runs as that
// GEMM's epilogue: ONE launch under the GEMM's tag whose body runs the
// GEMM's body, which rounds C to its dtype, and then the chain's body over
// C, so every value is the two-launch chain's. Where the chain's output is C
// itself, it overwrites C in place, each index reading before writing. The
// launch is charged the GEMM's descriptor plus the chain's bytes and flops
// at the GEMM's share of C (GemmLaunch::c_share, the 1/tp that TpChargeScale
// charges a standalone chain on a shard), less the chain's re-read of C,
// which stays on chip; in place, the GEMM's store of C is the chain's store,
// charged once. It runs at the lower of the two memory efficiencies. The
// GEMM carries its own shard charge, so no charge scale may be active.

/// y = dropout(relu(x + bias)); writes the mask for backward.
void bias_relu_dropout_fw(KernelContext& kc, const Tensor& x, const Tensor& bias,
                          const Tensor& y, const Tensor& mask, float p, uint64_t stream,
                          const gemm::GemmLaunch* gemm = nullptr);
/// dx = dy * mask/(1-p) * relu'(x + bias); x is the stored GEMM output.
/// A defined `dbias` also accumulates bias_grad(dx) in the same launch.
void bias_relu_dropout_bw(KernelContext& kc, const Tensor& dy, const Tensor& mask,
                          const Tensor& x, const Tensor& bias, const Tensor& dx, float p,
                          const Tensor& dbias = {}, const gemm::GemmLaunch* gemm = nullptr);

/// y = dropout(gelu(x + bias)).
void bias_gelu_dropout_fw(KernelContext& kc, const Tensor& x, const Tensor& bias,
                          const Tensor& y, const Tensor& mask, float p, uint64_t stream,
                          const gemm::GemmLaunch* gemm = nullptr);
void bias_gelu_dropout_bw(KernelContext& kc, const Tensor& dy, const Tensor& mask,
                          const Tensor& x, const Tensor& bias, const Tensor& dx, float p,
                          const Tensor& dbias = {}, const gemm::GemmLaunch* gemm = nullptr);

/// y = residual + dropout(x + bias) — the last kernel of each sublayer.
void bias_dropout_residual_fw(KernelContext& kc, const Tensor& x, const Tensor& bias,
                              const Tensor& residual, const Tensor& y, const Tensor& mask,
                              float p, uint64_t stream,
                              const gemm::GemmLaunch* gemm = nullptr);
/// dx = dy * mask/(1-p). (The residual branch's gradient is dy itself.)
/// A defined `dbias` also accumulates bias_grad(dx) in the same launch.
void bias_dropout_residual_bw(KernelContext& kc, const Tensor& dy, const Tensor& mask,
                              const Tensor& dx, float p, const Tensor& dbias = {});

}  // namespace fused

/// dbias[j] += sum_i dx[i,j], one launch. The baselines reduce every bias
/// gradient this way, as their released kernels do. LightSeq2 folds it into
/// the backward kernel that produces dx (the fused bias chains above and
/// attn_bw, whose gradient operands carry a `dbias`); only ClsHead, whose dx
/// comes from the criterion, still launches it under LightSeq2.
void bias_grad(KernelContext& kc, const Tensor& dx, const Tensor& dbias);

namespace detail {

/// One bias-gradient reduction a launch folds: dbias[j] += sum_i rows[i,
/// col + j] for j in [0, dbias.numel()), over every row of `rows`
/// flattened to 2-D — a column block of a wider rows tensor, or all of it.
struct BiasFold {
  Tensor rows;
  Tensor dbias;
  int64_t col = 0;
};

/// Launch `body`, the producer of the folds' rows described by `d`, as ONE
/// kernel. The same launch then runs bias_grad's column sum for each fold
/// over the rows just stored, so each dbias is bitwise bias_grad's. Each
/// fold is charged its dbias bytes written and one flop per folded element;
/// the launch runs at the lowest occupancy of a 128-row column tile over its
/// folds, where folds that continue one another (adjacent column blocks of
/// one rows tensor, in list order) tile as one block. No fold: `body` alone.
void launch_folding_bias_grad(KernelContext& kc, simgpu::KernelDesc d,
                              const std::vector<BiasFold>& folds,
                              const std::function<void()>& body);
/// The one-fold case over all of dx; an undefined `dbias` folds nothing.
/// With `gemm` the launch is that GEMM's epilogue (see fused::), the folds'
/// charge part of the chain's.
void launch_folding_bias_grad(KernelContext& kc, simgpu::KernelDesc d, const Tensor& dx,
                              const Tensor& dbias, const std::function<void()>& body,
                              const gemm::GemmLaunch* gemm = nullptr);

}  // namespace detail

}  // namespace ls2::kern
