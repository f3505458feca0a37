// GPT-2: decoder-only language model — embedding, causal pre-LN Transformer
// stack with GELU FFNs, tied LM head (Table II row 4). Serving runs the
// training forward's layers inside a LayerContext::InferenceScope.
#pragma once

#include <memory>
#include <vector>

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

  /// Prefill: run prompts ids [B, Lp] (right-padded; `prompt_lens` i32 [B]
  /// masks the padding, nullptr for unpadded) through the causal stack.
  ///
  /// With `cache`, the prompt batch of `seqs` — KvCache::prefill_rows(seqs,
  /// Lp, prompt_lens) — runs through forward_cached: only prompt rows
  /// [first, Lp) run, since rows below every sequence's write_begin already
  /// live in shared prefix pages (a fully shared prompt recomputes its last
  /// row), and rows at or past len(seqs[b]) are padding whose K/V are
  /// dropped; the batch then commits (KvCache::commit_prefill). Returns
  /// logits of the computed rows, [B, Lp - first, vocab]: an unshared batch
  /// gets all Lp rows, and an unpadded prompt's last row predicts its next
  /// token.
  ///
  /// With cache == nullptr every row runs through the training forward's
  /// embed -> blocks -> final-LN stack (padded attention) and the logits are
  /// [B, Lp, vocab] — the full re-forward reference of the parity tests.
  Tensor prefill(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache* cache,
                 const std::vector<infer::SequenceHandle>& seqs,
                 const Tensor* prompt_lens = nullptr);

  /// The one cached forward: run the computed rows ids [B, Lq] of the
  /// cached batch `rows` through the stack, each layer storing the rows'
  /// K/V into `cache`'s paged pools and attending through them in place.
  /// Returns their logits [B, Lq, vocab]. A prompt batch comes from
  /// prefill; the decode step is the one-row full-lane case, ids [S, 1]
  /// (the next token per lane, pad for free lanes) with the rows of
  /// KvCache::begin_decode — static shapes every step, the
  /// graph-capturable serving region. The caller brackets a decode step
  /// with begin_decode / commit_decode, after KvCache::extend on every live
  /// sequence. A packed serving step (KvCache::begin_step) is ids [R, 1]
  /// over its decode, chunk and padding rows; its rows name the one row
  /// per lane it samples (PagedRows::out_rows), gathered before the final
  /// LayerNorm, so the logits are [S, 1, vocab].
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
  Tensor stack(layers::LayerContext& ctx, const Tensor& ids, const Tensor* key_lens);
};

}  // namespace ls2::models
