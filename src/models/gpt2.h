// GPT-2: decoder-only language model — embedding, causal pre-LN Transformer
// stack with GELU FFNs, tied LM head (Table II row 4). Serving runs the
// training forward's layers inside a LayerContext::InferenceScope.
#pragma once

#include <memory>

#include "dist/tensor_parallel.h"
#include "infer/kv_cache.h"
#include "layers/block_stack.h"
#include "layers/criterion_layer.h"
#include "layers/embedding_layer.h"
#include "layers/encoder_layer.h"

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

  // --- serving: each entry point opens a LayerContext::InferenceScope (no
  // dropout, nothing saved; throws under TP) ---

  /// Paged-cache geometry for `slots` concurrent decode lanes of up to
  /// `max_len` tokens each (prompt + generated), at the default page size.
  /// Callers tune page_tokens/total_pages/prefix_sharing on the returned
  /// config before constructing the KvCache.
  infer::KvCacheConfig kv_cache_config(int64_t slots, int64_t max_len) const;

  /// Cacheless prefill: every row of ids [B, L] through the training
  /// forward's embed -> blocks -> final-LN stack, returning the logits
  /// [B, L, vocab] — the full re-forward reference of the parity tests.
  Tensor prefill(layers::LayerContext& ctx, const Tensor& ids);

  /// The one cached forward: run ids [B, Lq] of the cached batch `rows`
  /// (KvCache::begin_step's, whose batch rows are single rows) through the
  /// stack, each layer storing the rows' K/V into `cache`'s paged pools and
  /// attending through them in place. Returns the logits of the rows
  /// PagedRows::out_rows names, gathered before the final LayerNorm — a
  /// packed step's one row per lane, [S, 1, vocab] — or of every row,
  /// [B, Lq, vocab], when out_rows is undefined, as in the pure decode step
  /// begin_step(0) describes: ids [S, 1], the next token per lane (pad for
  /// free lanes), after KvCache::extend on every sequence past its prompt.
  /// The caller commits the step (KvCache::commit_step).
  Tensor forward_cached(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache& cache,
                        const layers::PagedRows& rows);

  layers::ParamRegistry& params() { return params_; }
  const Gpt2Config& config() const { return cfg_; }

  /// Partition the stack across `pp` pipeline stages (DESIGN.md §9): the
  /// embedding with the first blocks on stage 0, the final LayerNorm and
  /// the tied LM head with the last blocks on stage pp-1. forward/backward
  /// then mark every stage boundary via LayerContext::pp_enter.
  const layers::PpPlan& pp_configure(int pp);

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
  std::unique_ptr<layers::BlockStack<layers::TransformerEncoderLayer>> blocks_;
  std::unique_ptr<layers::LayerNorm> ln_f_;
  std::unique_ptr<layers::CriterionLayer> criterion_;

  // Declaration range for the gradient bucketer (src/dist/bucket.h). The LM
  // head is tied to the token table, so embed_range_ — fired after the
  // embedding backward, the table's last accumulation — covers it.
  layers::ParamRange embed_range_;
  layers::PpPlan pp_plan_;

  /// Embedding -> blocks -> final LayerNorm over ids [B, L]: the body of
  /// forward and of the cacheless prefill. Returns the criterion's input.
  Tensor stack(layers::LayerContext& ctx, const Tensor& ids);
};

}  // namespace ls2::models
