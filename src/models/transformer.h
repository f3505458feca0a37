// Full encoder-decoder Transformer for machine translation (Fig. 2) —
// embedding, encoder stack, decoder stack with layer-batched cross
// attention (Fig. 5b), criterion with tied output projection.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/tensor_parallel.h"
#include "layers/block_stack.h"
#include "layers/criterion_layer.h"
#include "layers/decoder_layer.h"
#include "layers/embedding_layer.h"
#include "layers/encoder_layer.h"

namespace ls2::models {

struct TransformerConfig {
  int64_t vocab = 32768;
  int64_t hidden = 512;
  int64_t heads = 8;
  int64_t ffn_dim = 2048;
  int64_t encoder_layers = 6;
  int64_t decoder_layers = 6;
  int64_t max_len = 1024;
  float dropout = 0.1f;
  float attn_dropout = 0.1f;
  float act_dropout = 0.1f;
  float label_smoothing = 0.1f;
  int32_t pad_id = 0;
  bool tied_embeddings = true;  ///< share src/tgt tables and output projection
  /// Tensor parallelism (DESIGN §7): shards attention by heads, FFN by
  /// ffn_dim, the tied table + criterion logits by vocab, and the
  /// layer-batched cross-K/V projection by heads. Requires kLightSeq2 and
  /// heads/ffn_dim/vocab divisible by tp.size.
  dist::TpConfig tp;

  /// Transformer-Base (512d, 8 heads) with e encoder / d decoder layers.
  static TransformerConfig base(int64_t e = 6, int64_t d = 6);
  /// Transformer-Big (1024d, 16 heads).
  static TransformerConfig big(int64_t e = 6, int64_t d = 6);

  layers::TransformerLayerConfig layer_config() const;
  int64_t parameter_count() const;  ///< analytic, before materialisation
};

/// One training batch of padded token matrices.
struct MtBatch {
  Tensor src_ids;   ///< [B, Ls] i32
  Tensor tgt_in;    ///< [B, Lt] i32, shifted-right target
  Tensor tgt_out;   ///< [B, Lt] i32, gold next tokens
  Tensor src_lens;  ///< [B] i32
  Tensor tgt_lens;  ///< [B] i32
  int64_t tokens = 0;  ///< non-pad target tokens
};

class Transformer {
 public:
  Transformer(TransformerConfig cfg, layers::System system, DType dtype, uint64_t seed,
              BufferAllocator* param_alloc = nullptr);

  layers::CriterionResult forward(layers::LayerContext& ctx, const MtBatch& batch);
  void backward(layers::LayerContext& ctx);
  void release();

  layers::ParamRegistry& params() { return params_; }
  const TransformerConfig& config() const { return cfg_; }

  /// Partition across `pp` pipeline stages (DESIGN.md §9). The encoder
  /// takes the first pe = clamp(round(pp*enc/(enc+dec)), 1, pp-1) stages,
  /// the decoder the rest: source embedding on stage 0, final encoder LN +
  /// the layer-batched cross-K/V projection on stage pe-1, target
  /// embedding on stage pe, final decoder LN + tied criterion on stage
  /// pp-1. Cross K/V activations ride the stage chain with the hidden
  /// state, so boundary payloads include the K/V bytes still needed
  /// downstream.
  const layers::PpPlan& pp_configure(int pp);

  /// TP epilogue: apply the rank-0 trainer's update to the simulated peer
  /// shards (no-op when TP is off) — called by core::train_step after the
  /// optimizer step.
  void tp_finish_step(const optim::Optimizer& trainer) {
    if (tp_) tp_->finish_step(trainer);
  }
  /// Peer-shard registry, or nullptr (TP off / peers not simulated).
  layers::ParamRegistry* tp_peers() { return tp_ ? &tp_->peers() : nullptr; }

 private:
  /// Layer-batched (one GEMM, LightSeq2 only) or per-layer (two GEMMs per
  /// layer) cross-attention K/V projection of the encoder output, per
  /// policy (Fig. 5): a K and a V operand per decoder layer, the GEMM rows'
  /// column blocks with their biases under LightSeq2, split into head
  /// layout for the baselines.
  std::vector<kern::AttnOperand> project_cross_kv(layers::LayerContext& ctx,
                                                  const Tensor& enc_out);
  /// Backward of the projection from the decoder's K/V gradient
  /// accumulators (Transformer::backward); returns d(enc_out) contribution.
  Tensor cross_kv_backward(layers::LayerContext& ctx, const std::vector<Tensor>& dkv);

  TransformerConfig cfg_;
  layers::ParamRegistry params_;
  std::unique_ptr<dist::TpRuntime> tp_;  ///< peer shards (TP numeric runs)
  std::unique_ptr<layers::EmbeddingLayer> src_embed_, tgt_embed_;
  std::unique_ptr<layers::BlockStack<layers::TransformerEncoderLayer>> encoder_;
  std::unique_ptr<layers::LayerNorm> enc_ln_;
  layers::TpParam cross_kv_weight_, cross_kv_bias_;
  std::unique_ptr<layers::BlockStack<layers::TransformerDecoderLayer>> decoder_;
  std::unique_ptr<layers::LayerNorm> dec_ln_;
  std::unique_ptr<layers::CriterionLayer> criterion_;

  // Declaration ranges of the components the stacks and LayerNorms do not
  // report, reported grad-ready to the bucketer as each backward stage
  // completes (src/dist/bucket.h). The shared token table lives in
  // src_range_ and is final only after the source embedding backward — the
  // very last grad accumulation.
  layers::ParamRange src_range_, tgt_range_, cross_kv_range_, criterion_range_;
  layers::PpPlan pp_plan_;

  struct Saved {
    Tensor enc_out;          // final encoder LN output [B, Ls, H], the cross-K/V input
    std::vector<kern::AttnOperand> kv;  // K and V per decoder layer
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::models
