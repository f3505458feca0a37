// Transformer decoder layer (pre-LN): causal self-attention, cross-attention
// over the encoder output, feed-forward.
//
// Cross-attention keys/values arrive precomputed in head layout; under
// LightSeq2 the decoder *stack* computes them for all layers with one
// concatenated GEMM (layer-batched cross attention, Fig. 5b), while baseline
// policies compute each layer's K/V separately. Either way this layer only
// consumes them and accumulates their gradients.
#pragma once

#include <string>

#include "layers/encoder_layer.h"  // TransformerLayerConfig

namespace ls2::layers {

class TransformerDecoderLayer {
 public:
  TransformerDecoderLayer(ParamRegistry& params, const std::string& prefix,
                          TransformerLayerConfig cfg);

  /// x: [B, Lt, H]; k/v: [B, N, Ls, D]; src_lens masks encoder padding,
  /// tgt_lens masks decoder padding (on top of the causal mask).
  Tensor forward(LayerContext& ctx, const Tensor& x, const Tensor& k, const Tensor& v,
                 const Tensor* src_lens, const Tensor* tgt_lens);

  /// Returns dx; accumulates cross-attention K/V grads into dk/dv.
  Tensor backward(LayerContext& ctx, const Tensor& dy, const Tensor& dk, const Tensor& dv);
  void release();

  // --- serving (inference-only; see layers/attention.h) ---

  /// Prefill target rows [rows.first, L): causal self-attention through
  /// this layer's paged K/V pools (stored, then attended in place), cross
  /// attention over the per-slot cross K/V blocks (cross_k/cross_v
  /// [S, N, Ls_max, D], masked by src_lens), FFN.
  Tensor prefill(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                 const Tensor& v_pool, const PagedRows& rows, const Tensor& cross_k,
                 const Tensor& cross_v, const Tensor* src_lens);
  /// Single-token cached decode: self-attention through this layer's paged
  /// K/V pools, cross attention over the static per-lane cross K/V.
  Tensor decode_step(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                     const Tensor& v_pool, const Tensor& block_table,
                     const Tensor& positions, const Tensor& attend_lens,
                     const Tensor& cross_k, const Tensor& cross_v,
                     const Tensor* src_lens);

 private:
  SelfAttention self_attn_;
  CrossAttention cross_attn_;
  FeedForward ffn_;
};

}  // namespace ls2::layers
