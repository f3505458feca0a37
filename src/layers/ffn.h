// Position-wise feed-forward sublayer (pre-LN, residual inside):
//   y = x + Dropout(W2 · Dropout(Act(W1 · LN(x) + b1)) + b2)
// LightSeq2 fuses {bias, activation, dropout} after the first GEMM and
// {bias, dropout, residual} after the second into single kernels (Fig. 4),
// and runs each as the epilogue of the GEMM before it (gemm_epilogues):
// fc1 and its chain, fc2's dx GEMM and that chain's backward, and, without
// TP, fc2 and the residual chain are one launch each.
// Serving runs forward inside a LayerContext::InferenceScope: dropout at
// p = 0 (the unfused chains skip it), nothing saved.
#pragma once

#include <optional>
#include <string>

#include "layers/layer_context.h"
#include "layers/params.h"
#include "layers/tp.h"

namespace ls2::layers {

enum class Activation { kRelu, kGelu };

struct FfnConfig {
  int64_t hidden = 512;
  int64_t ffn_dim = 2048;
  float act_dropout = 0.1f;
  float out_dropout = 0.1f;
  Activation activation = Activation::kRelu;
  /// Megatron split (DESIGN.md §7): W1 column-parallel over ffn_dim, W2
  /// row-parallel — one TP all-reduce after W2 in forward, one after W1's
  /// dx in backward. LN params and the output bias stay replicated.
  TpDecl tp;
};

class FeedForward {
 public:
  FeedForward(ParamRegistry& params, const std::string& prefix, FfnConfig cfg);

  Tensor forward(LayerContext& ctx, const Tensor& x);
  Tensor backward(LayerContext& ctx, const Tensor& dy);
  void release();

 private:
  FfnConfig cfg_;
  ParamRegistry* params_;
  ParamRef ln_gamma_, ln_beta_, b2_;
  TpParam w1_, b1_, w2_;

  struct Saved {
    Tensor x, ln, mean, rstd;
    Tensor h1;        // first GEMM output (pre-bias) — input to fused act bw
    Tensor a;         // after activation+dropout — input to second GEMM
    Tensor act_mask;  // u8
    Tensor out_mask;  // u8
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::layers
