#include "models/gpt2.h"

#include <algorithm>

#include "kernels/transform.h"

namespace ls2::models {

Gpt2Config Gpt2Config::base() { return Gpt2Config{}; }

Gpt2Config Gpt2Config::large() {
  Gpt2Config c;
  c.hidden = 1280;
  c.heads = 20;
  c.ffn_dim = 5120;
  c.layers = 36;
  return c;
}

int64_t Gpt2Config::parameter_count() const {
  const int64_t h = hidden, f = ffn_dim;
  const int64_t block = 3 * h * h + 3 * h + h * h + h + 4 * h + 2 * h * f + f + h;
  return layers * block + vocab * h + 2 * h;
}

Gpt2::Gpt2(Gpt2Config cfg, layers::System system, DType dtype, uint64_t seed,
           BufferAllocator* param_alloc)
    : cfg_(cfg) {
  if (cfg.tp.enabled()) {
    LS2_CHECK(system == layers::System::kLightSeq2)
        << "tensor parallelism is implemented for the LightSeq2 system";
    if (cfg.tp.simulate_peers) tp_ = std::make_unique<dist::TpRuntime>(cfg.tp.size);
  }
  const layers::TpDecl tp_decl{cfg.tp.enabled() ? cfg.tp.size : 1,
                               tp_ ? &tp_->peers() : nullptr};

  layers::EmbeddingConfig ecfg;
  ecfg.vocab = cfg.vocab;
  ecfg.hidden = cfg.hidden;
  ecfg.max_len = cfg.max_len;
  ecfg.dropout = cfg.dropout;
  ecfg.pad_id = cfg.pad_id;
  ecfg.tp = tp_decl;
  const int mark = params_.size();
  embed_ = std::make_unique<layers::EmbeddingLayer>(params_, "gpt2.embed", ecfg);
  embed_range_ = params_.range_since(mark);

  layers::TransformerLayerConfig lcfg;
  lcfg.hidden = cfg.hidden;
  lcfg.heads = cfg.heads;
  lcfg.ffn_dim = cfg.ffn_dim;
  lcfg.dropout = cfg.dropout;
  lcfg.attn_dropout = cfg.dropout;
  lcfg.act_dropout = cfg.dropout;
  lcfg.activation = layers::Activation::kGelu;
  lcfg.causal = true;  // decoder-only: causal self-attention
  lcfg.tp = tp_decl;
  blocks_ = std::make_unique<layers::BlockStack<layers::TransformerEncoderLayer>>(
      params_, "gpt2.blocks", cfg.layers, lcfg);
  ln_f_ = std::make_unique<layers::LayerNorm>(params_, "gpt2.ln_f", cfg.hidden);

  layers::CriterionConfig ccfg;
  ccfg.vocab = cfg.vocab;
  ccfg.hidden = cfg.hidden;
  ccfg.label_smoothing = 0.0f;  // plain LM cross entropy
  ccfg.pad_id = cfg.pad_id;
  ccfg.tp = tp_decl;
  criterion_ = std::make_unique<layers::CriterionLayer>(params_, "gpt2.lm_head", ccfg,
                                                        embed_->table());

  params_.materialize(dtype, system == layers::System::kLightSeq2, Rng(seed), param_alloc);
  if (tp_) tp_->materialize(dtype, seed);
}

const layers::PpPlan& Gpt2::pp_configure(int pp) {
  layers::PpPlan plan(pp);
  plan.stage_params.front().push_back(embed_range_);
  blocks_->place(plan, 0, pp);
  plan.stage_params.back().push_back(ln_f_->range());
  // The LM head is tied to the token table on stage 0: the last stage's
  // criterion backward writes it, so its gradient rides one extra hop home.
  if (pp > 1) plan.tied_param = embed_->table().rank0();
  return pp_plan_ = std::move(plan);
}

layers::CriterionResult Gpt2::forward(layers::LayerContext& ctx, const LmBatch& batch) {
  // Peer mirror of the zeroed-at-step-start contract; under microbatched
  // execution peers accumulate across microbatches like the device grads.
  if (tp_ && ctx.kern.microbatch == 0) tp_->zero_grads();
  ctx.pp_enter(0, /*forward=*/true, 0);
  return criterion_->forward(ctx, stack(ctx, batch.ids), batch.targets);
}

Tensor Gpt2::stack(layers::LayerContext& ctx, const Tensor& ids) {
  return ln_f_->forward(ctx, blocks_->forward(ctx, embed_->forward(ctx, ids),
                                              [&](auto& block, int64_t, const Tensor& x) {
                                                return block.forward(ctx, x, nullptr);
                                              }));
}

void Gpt2::backward(layers::LayerContext& ctx) {
  ctx.pp_enter(pp_plan_.stages - 1, /*forward=*/false, 0);
  const Tensor d_out = criterion_->backward(ctx);
  const Tensor dh = blocks_->backward(ctx, ln_f_->backward(ctx, d_out));
  embed_->backward(ctx, dh);
  params_.notify_grad_ready(embed_range_);  // tied LM-head table now final
  release();
}

infer::KvCacheConfig Gpt2::kv_cache_config(int64_t slots, int64_t max_len) const {
  infer::KvCacheConfig kcfg;
  kcfg.layers = cfg_.layers;
  kcfg.heads = cfg_.heads;
  kcfg.head_dim = cfg_.hidden / cfg_.heads;
  kcfg.slots = slots;
  kcfg.seq_tokens = std::min<int64_t>(max_len, cfg_.max_len);
  kcfg.page_tokens = std::min<int64_t>(infer::kDefaultPageTokens, kcfg.seq_tokens);
  kcfg.dtype = params_.dtype();
  return kcfg;
}

Tensor Gpt2::prefill(layers::LayerContext& ctx, const Tensor& ids) {
  layers::LayerContext::InferenceScope serving(ctx, cfg_.tp.enabled());
  return criterion_->logits(ctx, stack(ctx, ids))
      .view({ids.shape()[0], ids.shape()[-1], cfg_.vocab});
}

Tensor Gpt2::forward_cached(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache& cache,
                            const layers::PagedRows& rows) {
  layers::LayerContext::InferenceScope serving(ctx, cfg_.tp.enabled());
  LS2_CHECK_EQ(ids.shape().rank(), 2);
  const int64_t B = ids.shape()[0], Lq = ids.shape()[1];
  LS2_CHECK_EQ(rows.q_begin.numel(), B) << "one row of metadata per batch row";
  Tensor h = blocks_->forward(
      ctx, embed_->forward(ctx, ids, &rows.q_begin), [&](auto& block, int64_t i, const Tensor& x) {
        const layers::PagedKv kv{cache.k_pool(i), cache.v_pool(i), rows};
        return block.forward(ctx, x, nullptr, &kv);
      });
  if (!rows.out_rows.defined()) {
    return criterion_->logits(ctx, ln_f_->forward(ctx, h)).view({B, Lq, cfg_.vocab});
  }
  // A packed step samples one row per lane: gather those rows before the
  // final LayerNorm, so the LM head runs on them alone. LayerNorm and GEMM
  // rows are independent, so the logits are bitwise the full batch's rows.
  LS2_CHECK_EQ(Lq, 1) << "a packed step's batch rows are single rows";
  const int64_t n = rows.out_rows.numel();
  const Tensor picked = ctx.alloc({n, 1, cfg_.hidden}, h.dtype());
  kern::gather_rows(ctx.kern, h, rows.out_rows, picked);
  h = picked;  // the full batch's rows return to the arena before the head
  return criterion_->logits(ctx, ln_f_->forward(ctx, h)).view({n, 1, cfg_.vocab});
}

void Gpt2::release() {
  embed_->release();
  blocks_->release();
  ln_f_->release();
  criterion_->release();
}

}  // namespace ls2::models
