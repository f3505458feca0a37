// Transformer decoder layer (pre-LN): causal self-attention, cross-attention
// over the encoder output, feed-forward.
//
// Cross-attention keys/values arrive precomputed as attention operands;
// under LightSeq2 the decoder *stack* computes them for all layers with one
// concatenated GEMM (layer-batched cross attention, Fig. 5b) and hands each
// layer its column blocks of the GEMM's rows, while baseline policies
// compute each layer's K/V separately and split them into head layout.
// Either way this layer only consumes them and accumulates their gradients.
#pragma once

#include <string>

#include "layers/encoder_layer.h"  // TransformerLayerConfig

namespace ls2::layers {

class TransformerDecoderLayer {
 public:
  TransformerDecoderLayer(ParamRegistry& params, const std::string& prefix,
                          TransformerLayerConfig cfg);

  /// x: [B, Lt, H]; k/v: [B, N, Ls, D] operands; src_lens masks encoder
  /// padding, tgt_lens masks decoder padding (on top of the causal mask).
  Tensor forward(LayerContext& ctx, const Tensor& x, const kern::AttnOperand& k,
                 const kern::AttnOperand& v, const Tensor* src_lens, const Tensor* tgt_lens);

  /// Returns dx; accumulates cross-attention K/V grads into dk/dv.
  Tensor backward(LayerContext& ctx, const Tensor& dy, const kern::AttnOperand& dk,
                  const kern::AttnOperand& dv);
  void release();

 private:
  SelfAttention self_attn_;
  CrossAttention cross_attn_;
  FeedForward ffn_;
};

}  // namespace ls2::layers
