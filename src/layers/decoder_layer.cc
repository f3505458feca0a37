#include "layers/decoder_layer.h"

namespace ls2::layers {

TransformerDecoderLayer::TransformerDecoderLayer(ParamRegistry& params,
                                                 const std::string& prefix,
                                                 TransformerLayerConfig cfg)
    : self_attn_(params, prefix + ".self_attn", cfg.attention(/*causal=*/true)),
      cross_attn_(params, prefix + ".cross_attn", cfg.attention(/*causal=*/false)),
      ffn_(params, prefix + ".ffn", cfg.ffn()) {}

Tensor TransformerDecoderLayer::forward(LayerContext& ctx, const Tensor& x,
                                        const kern::AttnOperand& k,
                                        const kern::AttnOperand& v, const Tensor* src_lens,
                                        const Tensor* tgt_lens) {
  LS2_CHECK(ctx.policy.supports_decoder)
      << system_name(ctx.policy.system) << " does not support decoder layers";
  Tensor h = self_attn_.forward(ctx, x, tgt_lens);
  h = cross_attn_.forward(ctx, h, k, v, src_lens);
  return ffn_.forward(ctx, h);
}

Tensor TransformerDecoderLayer::backward(LayerContext& ctx, const Tensor& dy,
                                         const kern::AttnOperand& dk,
                                         const kern::AttnOperand& dv) {
  Tensor dh = ffn_.backward(ctx, dy);
  dh = cross_attn_.backward(ctx, dh, dk, dv);
  return self_attn_.backward(ctx, dh);
}

void TransformerDecoderLayer::release() {
  self_attn_.release();
  cross_attn_.release();
  ffn_.release();
}

}  // namespace ls2::layers
