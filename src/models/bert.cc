#include "models/bert.h"

namespace ls2::models {

BertConfig BertConfig::base() { return BertConfig{}; }

BertConfig BertConfig::large() {
  BertConfig c;
  c.hidden = 1024;
  c.heads = 16;
  c.ffn_dim = 4096;
  c.layers = 24;
  return c;
}

int64_t BertConfig::parameter_count() const {
  const int64_t h = hidden, f = ffn_dim;
  const int64_t block = 3 * h * h + 3 * h + h * h + h + 4 * h + 2 * h * f + f + h;
  return layers * block + vocab * h + 2 * h + num_classes * h + num_classes;
}

Bert::Bert(BertConfig cfg, layers::System system, DType dtype, uint64_t seed,
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
  embed_ = std::make_unique<layers::EmbeddingLayer>(params_, "bert.embed", ecfg);
  embed_range_ = params_.range_since(mark);

  layers::TransformerLayerConfig lcfg;
  lcfg.hidden = cfg.hidden;
  lcfg.heads = cfg.heads;
  lcfg.ffn_dim = cfg.ffn_dim;
  lcfg.dropout = cfg.dropout;
  lcfg.attn_dropout = cfg.dropout;
  lcfg.act_dropout = cfg.dropout;
  lcfg.activation = layers::Activation::kGelu;
  lcfg.tp = tp_decl;  // the two-way classifier head stays replicated
  blocks_ = std::make_unique<layers::BlockStack<layers::TransformerEncoderLayer>>(
      params_, "bert.blocks", cfg.layers, lcfg);
  ln_f_ = std::make_unique<layers::LayerNorm>(params_, "bert.ln_f", cfg.hidden);
  head_ = std::make_unique<ClsHead>(params_, "bert", "classifier", cfg.hidden,
                                    cfg.num_classes);

  params_.materialize(dtype, system == layers::System::kLightSeq2, Rng(seed), param_alloc);
  if (tp_) tp_->materialize(dtype, seed);
}

const layers::PpPlan& Bert::pp_configure(int pp) {
  layers::PpPlan plan(pp);
  plan.stage_params.front().push_back(embed_range_);
  blocks_->place(plan, 0, pp);
  plan.stage_params.back().push_back(ln_f_->range());
  plan.stage_params.back().push_back(head_->range());
  return pp_plan_ = std::move(plan);
}

ClsResult Bert::forward(layers::LayerContext& ctx, const ClsBatch& batch) {
  // Peer mirror of the zeroed-at-step-start contract; under microbatched
  // execution peers accumulate across microbatches like the device grads.
  if (tp_ && ctx.kern.microbatch == 0) tp_->zero_grads();
  const int64_t L = batch.ids.shape()[1];
  LS2_CHECK(layers::pad_length(ctx.policy, L) == L)
      << layers::system_name(ctx.policy.system) << " runs only lengths that are multiples of "
      << ctx.policy.seq_multiple << ", got " << L << " — pad the batch";

  ctx.pp_enter(0, /*forward=*/true, 0);
  Tensor h = blocks_->forward(ctx, embed_->forward(ctx, batch.ids),
                              [&](auto& block, int64_t, const Tensor& x) {
                                return block.forward(ctx, x, &batch.lens);
                              });
  return head_->forward(ctx, ln_f_->forward(ctx, h), batch.labels);
}

void Bert::backward(layers::LayerContext& ctx) {
  ctx.pp_enter(pp_plan_.stages - 1, /*forward=*/false, 0);
  const Tensor d_out = head_->backward(ctx);
  const Tensor dh = blocks_->backward(ctx, ln_f_->backward(ctx, d_out));
  embed_->backward(ctx, dh);
  params_.notify_grad_ready(embed_range_);
  release();
}

void Bert::release() {
  embed_->release();
  blocks_->release();
  ln_f_->release();
  head_->release();
}

}  // namespace ls2::models
