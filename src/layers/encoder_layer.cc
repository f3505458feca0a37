#include "layers/encoder_layer.h"

namespace ls2::layers {

TransformerEncoderLayer::TransformerEncoderLayer(ParamRegistry& params,
                                                 const std::string& prefix,
                                                 TransformerLayerConfig cfg)
    : attn_(params, prefix + ".self_attn", cfg.attention(cfg.causal)),
      ffn_(params, prefix + ".ffn", cfg.ffn()) {}

Tensor TransformerEncoderLayer::forward(LayerContext& ctx, const Tensor& x,
                                        const Tensor* key_lens, const PagedKv* paged) {
  Tensor h = attn_.forward(ctx, x, key_lens, paged);
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
