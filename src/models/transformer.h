// Full encoder-decoder Transformer for machine translation (Fig. 2) —
// embedding, encoder stack, decoder stack with layer-batched cross
// attention (Fig. 5b), criterion with tied output projection.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/tensor_parallel.h"
#include "infer/kv_cache.h"
#include "layers/criterion_layer.h"
#include "layers/decoder_layer.h"
#include "layers/embedding_layer.h"
#include "layers/encoder_layer.h"
#include "layers/pp.h"

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

  // --- serving (inference-only: no dropout, nothing saved) ---
  //
  // Translation serving takes one allocated SequenceHandle per request:
  // encode() runs the source batch once and installs the per-lane cross K/V
  // — the layer-batched projection computed ONCE per request, reused by
  // every decode step — then prefill()/decode_step() grow the target side
  // against the paged self-attention cache exactly like the GPT-2 path.

  /// Cache geometry: paged decoder self K/V for `max_len` target tokens
  /// plus contiguous cross K/V for `cross_len` source tokens, per lane.
  infer::KvCacheConfig kv_cache_config(int64_t slots, int64_t max_len,
                                       int64_t cross_len) const;

  /// Encode src_ids [B, Ls] (right-padded; src_lens i32 [B]) and write every
  /// decoder layer's cross K/V into the lanes of `seqs` — also records the
  /// per-lane source lengths for the cross-attention mask.
  void encode(layers::LayerContext& ctx, const Tensor& src_ids, const Tensor& src_lens,
              infer::KvCache& cache, const std::vector<infer::SequenceHandle>& seqs);

  /// Prefill the target prefix tgt_in [B, Lp] (right-padded; tgt_lens
  /// optional) and return logits [B, Lp, vocab]. Each decoder layer stores
  /// row b's self K/V through `seqs[b]`'s block table into the paged pools,
  /// then attends through them in place; padding rows past len(seqs[b]) are
  /// dropped (decode appends claim those positions).
  Tensor prefill(layers::LayerContext& ctx, const Tensor& tgt_in, infer::KvCache& cache,
                 const std::vector<infer::SequenceHandle>& seqs,
                 const Tensor* tgt_lens = nullptr);

  /// One decode step over all slots: ids [S, 1] -> logits [S, vocab].
  Tensor decode_step(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache& cache);

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
  const layers::PpPlan& pp_plan() const { return pp_plan_; }

  /// TP epilogue: apply the rank-0 trainer's update to the simulated peer
  /// shards (no-op when TP is off) — called by core::train_step after the
  /// optimizer step.
  void tp_finish_step(const optim::Optimizer& trainer) {
    if (tp_) tp_->finish_step(trainer);
  }
  /// Peer-shard registry, or nullptr (TP off / peers not simulated).
  layers::ParamRegistry* tp_peers() { return tp_ ? &tp_->peers() : nullptr; }

 private:
  /// Layer-batched (one GEMM + one split) or per-layer cross-attention K/V
  /// projection of the encoder output, per policy (Fig. 5).
  std::vector<Tensor> project_cross_kv(layers::LayerContext& ctx, const Tensor& enc_out);
  /// Backward of the projection; returns d(enc_out) contribution.
  Tensor cross_kv_backward(layers::LayerContext& ctx, const std::vector<Tensor>& dkv);

  TransformerConfig cfg_;
  layers::ParamRegistry params_;
  std::unique_ptr<dist::TpRuntime> tp_;  ///< peer shards (TP numeric runs)
  std::unique_ptr<layers::EmbeddingLayer> src_embed_, tgt_embed_;
  std::vector<std::unique_ptr<layers::TransformerEncoderLayer>> encoder_;
  std::vector<std::unique_ptr<layers::TransformerDecoderLayer>> decoder_;
  layers::ParamRef enc_ln_gamma_, enc_ln_beta_, dec_ln_gamma_, dec_ln_beta_;
  layers::TpParam cross_kv_weight_, cross_kv_bias_;
  std::unique_ptr<layers::CriterionLayer> criterion_;

  // Parameter declaration ranges per component, reported grad-ready to the
  // bucketer as each backward stage completes (src/dist/bucket.h). The
  // shared token table lives in src_range_ and is final only after the
  // source embedding backward — the very last grad accumulation.
  layers::ParamRange src_range_, tgt_range_, enc_ln_range_, cross_kv_range_;
  layers::ParamRange dec_ln_range_, criterion_range_;
  std::vector<layers::ParamRange> enc_ranges_, dec_ranges_;
  layers::PpPlan pp_plan_;
  int pp_encoder_stages_ = 1;      ///< pe: stages [0, pe) run the encoder
  std::vector<int> enc_stage_, dec_stage_;  ///< stage of each layer

  struct Saved {
    Tensor src_lens, tgt_lens;
    Tensor enc_stack_out, enc_out, enc_mean, enc_rstd;  // final encoder LN
    Tensor dec_stack_out, dec_out, dec_mean, dec_rstd;  // final decoder LN
    std::vector<Tensor> kv;  // 2 per decoder layer, head layout
    int64_t B = 0, Ls = 0, Lt = 0;
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::models
