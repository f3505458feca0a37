#include "models/gpt2.h"

#include <algorithm>

#include "kernels/layernorm.h"

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
  int mark = params_.size();
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
  for (int64_t i = 0; i < cfg.layers; ++i) {
    mark = params_.size();
    blocks_.push_back(std::make_unique<layers::TransformerEncoderLayer>(
        params_, "gpt2.blocks." + std::to_string(i), lcfg));
    block_ranges_.push_back(params_.range_since(mark));
  }
  mark = params_.size();
  ln_gamma_ = params_.declare("gpt2.ln_f.gamma", Shape{cfg.hidden}, layers::Init::kOne);
  ln_beta_ = params_.declare("gpt2.ln_f.beta", Shape{cfg.hidden}, layers::Init::kZero);
  ln_range_ = params_.range_since(mark);

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
  LS2_CHECK(pp >= 1 && pp <= cfg_.layers)
      << "pp " << pp << " needs at least one block per stage (layers=" << cfg_.layers << ")";
  pp_plan_ = layers::PpPlan{};
  pp_plan_.stages = pp;
  pp_plan_.stage_params.assign(static_cast<size_t>(pp), {});
  pp_plan_.stage_params[0].push_back(embed_range_);
  block_stage_.assign(static_cast<size_t>(cfg_.layers), 0);
  for (int64_t i = 0; i < cfg_.layers; ++i) {
    const int s = layers::block_stage(i, cfg_.layers, pp);
    block_stage_[static_cast<size_t>(i)] = s;
    pp_plan_.stage_params[static_cast<size_t>(s)].push_back(
        block_ranges_[static_cast<size_t>(i)]);
  }
  pp_plan_.stage_params[static_cast<size_t>(pp - 1)].push_back(ln_range_);
  // The LM head is tied to the token table on stage 0: the last stage's
  // criterion backward writes it, so its gradient rides one extra hop home.
  if (pp > 1) pp_plan_.tied_param = embed_->table().rank0();
  return pp_plan_;
}

layers::CriterionResult Gpt2::forward(layers::LayerContext& ctx, const LmBatch& batch) {
  // Peer mirror of the zeroed-at-step-start contract; under microbatched
  // execution peers accumulate across microbatches like the device grads.
  if (tp_ && ctx.kern.microbatch == 0) tp_->zero_grads();
  ctx.pp_enter(0, /*forward=*/true, 0);
  return criterion_->forward(ctx, stack(ctx, batch.ids, /*key_lens=*/nullptr), batch.targets);
}

Tensor Gpt2::stack(layers::LayerContext& ctx, const Tensor& ids, const Tensor* key_lens) {
  Tensor h = embed_->forward(ctx, ids);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (!block_stage_.empty() && i > 0 && block_stage_[i] != block_stage_[i - 1]) {
      ctx.pp_enter(block_stage_[i], true, static_cast<int64_t>(h.bytes()));
    }
    h = blocks_[i]->forward(ctx, h, key_lens);
  }
  return final_ln(ctx, h);
}

Tensor Gpt2::final_ln(layers::LayerContext& ctx, const Tensor& h) {
  const int64_t B = h.shape()[0], L = h.shape()[1];
  Tensor out = ctx.alloc({B, L, cfg_.hidden}, params_.dtype());
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, h, params_.value(ln_gamma_),
                     params_.value(ln_beta_), out, mean, rstd);
  if (ctx.training()) saved_ = Saved{h, out, mean, rstd, B, L};
  return out;
}

void Gpt2::backward(layers::LayerContext& ctx) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int last_stage = pp_plan_.stages - 1;
  ctx.pp_enter(last_stage, /*forward=*/false, 0);
  Tensor d_out = criterion_->backward(ctx);
  Tensor dh = ctx.alloc({s.B, s.L, cfg_.hidden}, params_.dtype());
  kern::layernorm_bw(ctx.kern, ctx.policy.layernorm, d_out, s.stack_out,
                     params_.value(ln_gamma_), s.mean, s.rstd, dh, params_.grad(ln_gamma_),
                     params_.grad(ln_beta_));
  params_.notify_grad_ready(ln_range_);
  int stage = last_stage;
  for (int64_t i = cfg_.layers - 1; i >= 0; --i) {
    if (!block_stage_.empty() && block_stage_[static_cast<size_t>(i)] != stage) {
      stage = block_stage_[static_cast<size_t>(i)];
      ctx.pp_enter(stage, false, static_cast<int64_t>(dh.bytes()));
    }
    dh = blocks_[static_cast<size_t>(i)]->backward(ctx, dh);
    params_.notify_grad_ready(block_ranges_[static_cast<size_t>(i)]);
  }
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

Tensor Gpt2::prefill(layers::LayerContext& ctx, const Tensor& ids, infer::KvCache* cache,
                     const std::vector<infer::SequenceHandle>& seqs,
                     const Tensor* prompt_lens) {
  layers::LayerContext::InferenceScope serving(ctx, cfg_.tp.enabled());
  const int64_t B = ids.shape()[0], L = ids.shape()[-1];
  if (cache == nullptr)
    return criterion_->logits(ctx, stack(ctx, ids, prompt_lens)).view({B, L, cfg_.vocab});
  LS2_CHECK_EQ(static_cast<int64_t>(seqs.size()), B);
  const layers::PagedRows rows = cache->prefill_rows(seqs, L, prompt_lens);
  const int64_t Lq = L - rows.first;
  Tensor tail = ids;
  if (rows.first > 0) {
    // Heap: the computed rows' ids, host-side like the prompt itself.
    tail = Tensor::empty({B, Lq}, DType::kI32);
    for (int64_t b = 0; b < B; ++b)
      std::copy_n(ids.data<int32_t>() + b * L + rows.first, Lq, tail.data<int32_t>() + b * Lq);
  }
  Tensor h = embed_->forward(ctx, tail, rows.first);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    h = blocks_[i]->prefill(ctx, h, cache->k_pool(static_cast<int64_t>(i)),
                            cache->v_pool(static_cast<int64_t>(i)), rows);
  }
  return criterion_->logits(ctx, final_ln(ctx, h)).view({B, Lq, cfg_.vocab});
}

Tensor Gpt2::decode_step(layers::LayerContext& ctx, const Tensor& ids,
                         infer::KvCache& cache) {
  layers::LayerContext::InferenceScope serving(ctx, cfg_.tp.enabled());
  const int64_t S = cache.config().slots;
  LS2_CHECK_EQ(ids.shape()[0], S) << "decode runs the full slot batch";
  Tensor h = embed_->decode_step(ctx, ids, cache.positions());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    h = blocks_[i]->decode_step(ctx, h, cache.k_pool(static_cast<int64_t>(i)),
                                cache.v_pool(static_cast<int64_t>(i)), cache.block_table(),
                                cache.positions(), cache.attend_lens());
  }
  return criterion_->logits(ctx, final_ln(ctx, h));  // [S, vocab]
}

void Gpt2::release() {
  saved_.reset();
  embed_->release();
  for (auto& b : blocks_) b->release();
  criterion_->release();
}

}  // namespace ls2::models
