// Linear projection helpers over the device GEMM.
//
// Weights follow the [out_features, in_features] convention. Bias handling
// deliberately lives OUTSIDE these helpers: LightSeq2 fuses bias into the
// adjacent element-wise kernel (Fig. 4), so the GEMM never adds it.
#pragma once

#include "gemm/gemm_device.h"
#include "layers/layer_context.h"
#include "tensor/tensor.h"

namespace ls2::layers {

/// y[M, out] = x[M, in] @ W[out, in]^T.
void linear_fw(LayerContext& ctx, const Tensor& x, const Tensor& w, const Tensor& y,
               const std::string& tag);

/// dx[M, in] = dy[M, out] @ W[out, in];  dW[out, in] += dy^T @ x.
/// Pass an undefined dx to skip input gradients (first layer).
void linear_bw(LayerContext& ctx, const Tensor& dy, const Tensor& x, const Tensor& w,
               const Tensor& dx, const Tensor& dw, const std::string& tag);

// --- tensor-parallel variants (DESIGN.md §7) ---
//
// Same math as linear_fw/linear_bw on the full tensors (the bitwise
// stand-in for the sharded arithmetic), but the device is charged for ONE
// rank's shard-shaped GEMM. kColumn shards the output features: no forward
// comm, and the backward dx is a cross-rank partial sum — tp_linear_bw
// enqueues its TP all-reduce right after the dx GEMM and stream-waits only
// after the dW GEMM, so weight-gradient work hides part of the transfer.
// kRow shards the input features: backward is fully local, and the FORWARD
// output is the partial sum — the caller charges that all-reduce (after
// tp_linear_fw, before anything consumes y). Identity when TP is off.

enum class TpSplit {
  kColumn,  ///< shard out-features; input replicated
  kRow,     ///< shard in-features; output is a partial sum
};

void tp_linear_fw(LayerContext& ctx, const Tensor& x, const Tensor& w, const Tensor& y,
                  const std::string& tag, TpSplit split);
void tp_linear_bw(LayerContext& ctx, const Tensor& dy, const Tensor& x, const Tensor& w,
                  const Tensor& dx, const Tensor& dw, const std::string& tag,
                  TpSplit split);

/// The GEMM tp_linear_fw launches, and the dx GEMM tp_linear_bw launches,
/// as values (shard charge included): for a kernel that runs its chain as
/// the GEMM's epilogue (kern::fused). A caller that fuses the dx GEMM
/// passes tp_linear_bw an undefined dx; only a kRow dx, which needs no
/// all-reduce, may be fused.
gemm::GemmLaunch tp_linear_fw_gemm(LayerContext& ctx, const Tensor& x, const Tensor& w,
                                   const Tensor& y, const std::string& tag, TpSplit split);
gemm::GemmLaunch tp_linear_bw_dx_gemm(LayerContext& ctx, const Tensor& dy, const Tensor& w,
                                      const Tensor& dx, const std::string& tag,
                                      TpSplit split);

}  // namespace ls2::layers
