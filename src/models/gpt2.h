// GPT-2: decoder-only language model — embedding, causal pre-LN Transformer
// stack with GELU FFNs, tied LM head (Table II row 4).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dist/tensor_parallel.h"
#include "infer/kv_cache.h"
#include "layers/criterion_layer.h"
#include "layers/embedding_layer.h"
#include "layers/encoder_layer.h"
#include "layers/pp.h"

namespace ls2::models {

struct Gpt2Config {
  int64_t vocab = 50257;
  int64_t hidden = 768;
  int64_t heads = 12;
  int64_t ffn_dim = 3072;
  int64_t layers = 12;
  int64_t max_len = 1024;
  float dropout = 0.1f;
  int32_t pad_id = 0;
  /// Tensor parallelism (DESIGN §7). Requires kLightSeq2 and heads/ffn_dim/
  /// vocab divisible by tp.size — GPT-2's 50257 vocab needs Megatron-style
  /// padding (e.g. 50264) before sharding.
  dist::TpConfig tp;

  static Gpt2Config base();   ///< 117M parameters
  static Gpt2Config large();  ///< 762M parameters
  int64_t parameter_count() const;
};

struct LmBatch {
  Tensor ids;      ///< [B, L] i32 input tokens
  Tensor targets;  ///< [B, L] i32 next tokens (pad_id where ignored)
};

class Gpt2 {
 public:
  Gpt2(Gpt2Config cfg, layers::System system, DType dtype, uint64_t seed,
       BufferAllocator* param_alloc = nullptr);

  layers::CriterionResult forward(layers::LayerContext& ctx, const LmBatch& batch);
  void backward(layers::LayerContext& ctx);
  void release();

  // --- serving (inference-only: no dropout, nothing saved) ---

  /// Paged-cache geometry for `slots` concurrent decode lanes of up to
  /// `max_len` tokens each (prompt + generated), at the default page size.
  /// Callers tune page_tokens/total_pages/prefix_sharing on the returned
  /// config before constructing the KvCache.
  infer::KvCacheConfig kv_cache_config(int64_t slots, int64_t max_len) const;

  /// Prefill: run prompts ids [B, Lp] (right-padded; `prompt_lens` i32 [B]
  /// masks the padding, nullptr for unpadded) through the causal stack.
  ///
  /// With `cache`, only prompt rows [first, Lp) run, first =
  /// KvCache::prefill_rows(seqs, Lp).first: rows below every sequence's
  /// write_begin already live in shared prefix pages, so they are neither
  /// recomputed nor rewritten (a fully shared prompt recomputes its last
  /// row). Each layer stores the computed rows' K/V through `seqs[b]`'s
  /// block table first — rows at or past len(seqs[b]) are padding and are
  /// dropped — then attends through the pages in place. Returns logits of
  /// the computed rows, [B, Lp - first, vocab]: an unshared batch gets all
  /// Lp rows, and an unpadded prompt's last row predicts its next token.
  ///
  /// With cache == nullptr every row runs through padded attention and the
  /// logits are [B, Lp, vocab] — the full re-forward reference of the
  /// parity tests.
  Tensor prefill(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache* cache,
                 const std::vector<infer::SequenceHandle>& seqs,
                 const Tensor* prompt_lens = nullptr);

  /// One incremental decode step over ALL decode lanes: ids [S, 1] (the next
  /// token per lane, pad for free lanes), returns logits [S, vocab]. Static
  /// shape every step — the graph-capturable serving region. The caller
  /// brackets it with KvCache::begin_decode / commit_decode, after
  /// KvCache::extend on every live sequence.
  Tensor decode_step(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache& cache);

  layers::ParamRegistry& params() { return params_; }
  const Gpt2Config& config() const { return cfg_; }

  /// Partition the stack across `pp` pipeline stages (DESIGN.md §9): the
  /// embedding with the first blocks on stage 0, the final LayerNorm and
  /// the tied LM head with the last blocks on stage pp-1. forward/backward
  /// then mark every stage boundary via LayerContext::pp_enter.
  const layers::PpPlan& pp_configure(int pp);
  const layers::PpPlan& pp_plan() const { return pp_plan_; }

  /// TP epilogue (no-op when TP is off): peer-shard update after the rank-0
  /// trainer step — see core::train_step.
  void tp_finish_step(const optim::Optimizer& trainer) {
    if (tp_) tp_->finish_step(trainer);
  }
  layers::ParamRegistry* tp_peers() { return tp_ ? &tp_->peers() : nullptr; }

 private:
  Gpt2Config cfg_;
  layers::ParamRegistry params_;
  std::unique_ptr<dist::TpRuntime> tp_;
  std::unique_ptr<layers::EmbeddingLayer> embed_;
  std::vector<std::unique_ptr<layers::TransformerEncoderLayer>> blocks_;
  layers::ParamRef ln_gamma_, ln_beta_;
  std::unique_ptr<layers::CriterionLayer> criterion_;

  // Declaration ranges for the gradient bucketer (src/dist/bucket.h). The
  // LM head is tied to the token table, so embed_range_ — fired after the
  // embedding backward, the table's last accumulation — covers it.
  layers::ParamRange embed_range_, ln_range_;
  std::vector<layers::ParamRange> block_ranges_;
  layers::PpPlan pp_plan_;
  std::vector<int> block_stage_;  ///< stage of each block (all 0 without PP)

  /// Serving tail: final LayerNorm and tied LM head over h [B, L, H] ->
  /// logits [B, L, vocab].
  Tensor infer_head(layers::LayerContext& ctx, const Tensor& h);

  struct Saved {
    Tensor stack_out, out, mean, rstd;
    int64_t B = 0, L = 0;
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::models
