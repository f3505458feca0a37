// Transformer encoder layer (pre-LN): self-attention + feed-forward, each
// with its own LayerNorm, dropout, and residual (Fig. 4).
#pragma once

#include <string>

#include "layers/attention.h"
#include "layers/ffn.h"

namespace ls2::layers {

struct TransformerLayerConfig {
  int64_t hidden = 512;
  int64_t heads = 8;
  int64_t ffn_dim = 2048;
  float dropout = 0.1f;          ///< residual/output dropout
  float attn_dropout = 0.1f;     ///< attention-probability dropout
  float act_dropout = 0.1f;      ///< FFN activation dropout
  Activation activation = Activation::kRelu;
  bool causal = false;  ///< causal self-attention (GPT-style decoder-only stacks)
  TpDecl tp;            ///< tensor-parallel sharding of attention + FFN (DESIGN §7)

  AttentionConfig attention(bool causal) const {
    AttentionConfig a;
    a.hidden = hidden;
    a.heads = heads;
    a.attn_dropout = attn_dropout;
    a.out_dropout = dropout;
    a.causal = causal;
    a.tp = tp;
    return a;
  }
  FfnConfig ffn() const {
    FfnConfig f;
    f.hidden = hidden;
    f.ffn_dim = ffn_dim;
    f.act_dropout = act_dropout;
    f.out_dropout = dropout;
    f.activation = activation;
    f.tp = tp;
    return f;
  }
};

class TransformerEncoderLayer {
 public:
  TransformerEncoderLayer(ParamRegistry& params, const std::string& prefix,
                          TransformerLayerConfig cfg);

  /// x: [B, L, H]; key_lens (i32 [B], optional) masks padded positions.
  Tensor forward(LayerContext& ctx, const Tensor& x, const Tensor* key_lens);
  Tensor backward(LayerContext& ctx, const Tensor& dy);
  void release();

  // --- serving (inference-only; see layers/attention.h) ---

  /// Uncached prefill: dropout-free forward (the encoder, and the full
  /// re-forward reference).
  Tensor prefill(LayerContext& ctx, const Tensor& x, const Tensor* key_lens);
  /// Cached prefill of prompt rows [rows.first, L): self-attention stores
  /// this batch's K/V into the layer's paged pools and attends through them.
  Tensor prefill(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                 const Tensor& v_pool, const PagedRows& rows);
  /// Single-token cached decode through this layer's paged K/V pools.
  Tensor decode_step(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                     const Tensor& v_pool, const Tensor& block_table,
                     const Tensor& positions, const Tensor& attend_lens);

 private:
  SelfAttention attn_;
  FeedForward ffn_;
};

}  // namespace ls2::layers
