#include "layers/encoder_layer.h"

namespace ls2::layers {

TransformerEncoderLayer::TransformerEncoderLayer(ParamRegistry& params,
                                                 const std::string& prefix,
                                                 TransformerLayerConfig cfg)
    : attn_(params, prefix + ".self_attn", cfg.attention(cfg.causal)),
      ffn_(params, prefix + ".ffn", cfg.ffn()) {}

Tensor TransformerEncoderLayer::forward(LayerContext& ctx, const Tensor& x,
                                        const Tensor* key_lens) {
  Tensor h = attn_.forward(ctx, x, key_lens);
  return ffn_.forward(ctx, h);
}

Tensor TransformerEncoderLayer::prefill(LayerContext& ctx, const Tensor& x,
                                        const Tensor& k_pool, const Tensor& v_pool,
                                        const PagedRows& rows) {
  Tensor h = attn_.prefill(ctx, x, k_pool, v_pool, rows);
  return ffn_.forward(ctx, h);
}

Tensor TransformerEncoderLayer::decode_step(LayerContext& ctx, const Tensor& x,
                                            const Tensor& k_pool, const Tensor& v_pool,
                                            const Tensor& block_table,
                                            const Tensor& positions,
                                            const Tensor& attend_lens) {
  Tensor h = attn_.decode_step(ctx, x, k_pool, v_pool, block_table, positions, attend_lens);
  return ffn_.forward(ctx, h);
}

Tensor TransformerEncoderLayer::backward(LayerContext& ctx, const Tensor& dy) {
  Tensor dh = ffn_.backward(ctx, dy);
  return attn_.backward(ctx, dh);
}

void TransformerEncoderLayer::release() {
  attn_.release();
  ffn_.release();
}

}  // namespace ls2::layers
