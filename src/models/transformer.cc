#include "models/transformer.h"

#include <algorithm>

#include "gemm/gemm_device.h"
#include "kernels/elementwise.h"
#include "kernels/transform.h"
#include "layers/linear.h"

namespace ls2::models {

using layers::LayerContext;

namespace {

// Bytes of the cross K/V (or their gradients) of decoder layers [layer, n):
// what a decoder stage boundary carries besides the hidden state.
layers::StackCarry kv_bytes_from(const std::vector<kern::AttnOperand>& kv) {
  return [&kv](int64_t layer) {
    int64_t bytes = 0;
    for (size_t t = 2 * static_cast<size_t>(layer); t < kv.size(); ++t) bytes += kv[t].bytes();
    return bytes;
  };
}

}  // namespace

TransformerConfig TransformerConfig::base(int64_t e, int64_t d) {
  TransformerConfig c;
  c.hidden = 512;
  c.heads = 8;
  c.ffn_dim = 2048;
  c.encoder_layers = e;
  c.decoder_layers = d;
  return c;
}

TransformerConfig TransformerConfig::big(int64_t e, int64_t d) {
  TransformerConfig c;
  c.hidden = 1024;
  c.heads = 16;
  c.ffn_dim = 4096;
  c.encoder_layers = e;
  c.decoder_layers = d;
  return c;
}

layers::TransformerLayerConfig TransformerConfig::layer_config() const {
  layers::TransformerLayerConfig l;
  l.hidden = hidden;
  l.heads = heads;
  l.ffn_dim = ffn_dim;
  l.dropout = dropout;
  l.attn_dropout = attn_dropout;
  l.act_dropout = act_dropout;
  return l;
}

int64_t TransformerConfig::parameter_count() const {
  const int64_t h = hidden, f = ffn_dim;
  // Per encoder layer: QKV (3h*h + 3h) + out (h*h + h) + 2 LN (4h) +
  // FFN (h*f + f + f*h + h) + FFN LN is included in the 2 LN above.
  const int64_t enc_layer = 3 * h * h + 3 * h + h * h + h + 4 * h + 2 * h * f + f + h;
  // Decoder adds cross-attn Q (h*h+h) + out (h*h+h) + LN (2h); the cross
  // K/V projection lives at stack level: 2h*h + 2h per layer.
  const int64_t dec_layer = enc_layer + 2 * h * h + 2 * h + 2 * h + 2 * h * h + 2 * h;
  int64_t total = encoder_layers * enc_layer + decoder_layers * dec_layer;
  total += vocab * h;       // shared token table
  total += 4 * h;           // final encoder+decoder LN
  if (!tied_embeddings) total += 2 * vocab * h;
  return total;
}

Transformer::Transformer(TransformerConfig cfg, layers::System system, DType dtype,
                         uint64_t seed, BufferAllocator* param_alloc)
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

  // Each component's declaration range is recorded for the gradient
  // bucketer; backward reports a range grad-ready once its last
  // accumulation has run.
  int mark = params_.size();
  src_embed_ = std::make_unique<layers::EmbeddingLayer>(params_, "encoder.embed", ecfg);
  src_range_ = params_.range_since(mark);
  mark = params_.size();
  tgt_embed_ = std::make_unique<layers::EmbeddingLayer>(
      params_, "decoder.embed", ecfg,
      cfg.tied_embeddings ? src_embed_->table() : layers::TpParam{});
  tgt_range_ = params_.range_since(mark);

  layers::TransformerLayerConfig lcfg = cfg.layer_config();
  lcfg.tp = tp_decl;
  encoder_ = std::make_unique<layers::BlockStack<layers::TransformerEncoderLayer>>(
      params_, "encoder.layers", cfg.encoder_layers, lcfg);
  enc_ln_ = std::make_unique<layers::LayerNorm>(params_, "encoder.ln", cfg.hidden);

  // Layer-batched cross-attention projection: ALL decoder layers' K/V
  // weights concatenated (Fig. 5b). Layer i owns rows [2iH, 2(i+1)H).
  // Under TP the packed [K0; V0; K1; V1; ...] rows are 2*layers groups,
  // each sharded by head slice — "shard by heads" for every layer's K and V
  // in the one concatenated weight.
  mark = params_.size();
  cross_kv_weight_ = layers::TpParam::declare(
      params_, tp_decl, "decoder.cross_kv.weight",
      Shape{2 * cfg.decoder_layers * cfg.hidden, cfg.hidden}, layers::Init::kXavier,
      /*dim=*/0, /*groups=*/2 * cfg.decoder_layers);
  cross_kv_bias_ = layers::TpParam::declare(
      params_, tp_decl, "decoder.cross_kv.bias", Shape{2 * cfg.decoder_layers * cfg.hidden},
      layers::Init::kZero, /*dim=*/0, /*groups=*/2 * cfg.decoder_layers);
  cross_kv_range_ = params_.range_since(mark);
  decoder_ = std::make_unique<layers::BlockStack<layers::TransformerDecoderLayer>>(
      params_, "decoder.layers", cfg.decoder_layers, lcfg);
  dec_ln_ = std::make_unique<layers::LayerNorm>(params_, "decoder.ln", cfg.hidden);

  layers::CriterionConfig ccfg;
  ccfg.vocab = cfg.vocab;
  ccfg.hidden = cfg.hidden;
  ccfg.label_smoothing = cfg.label_smoothing;
  ccfg.pad_id = cfg.pad_id;
  ccfg.tp = tp_decl;
  mark = params_.size();
  criterion_ = std::make_unique<layers::CriterionLayer>(
      params_, "criterion", ccfg,
      cfg.tied_embeddings ? src_embed_->table() : layers::TpParam{});
  criterion_range_ = params_.range_since(mark);

  params_.materialize(dtype, /*contiguous=*/system == layers::System::kLightSeq2, Rng(seed),
                      param_alloc);
  if (tp_) tp_->materialize(dtype, seed);
}

std::vector<kern::AttnOperand> Transformer::project_cross_kv(LayerContext& ctx,
                                                             const Tensor& enc_out) {
  const int64_t B = enc_out.shape()[0], Ls = enc_out.shape()[1], H = cfg_.hidden;
  const int64_t N = cfg_.heads, D = H / N, n = cfg_.decoder_layers;
  const DType dt = enc_out.dtype();
  const Tensor w = cross_kv_weight_.value(ctx);
  const Tensor b = cross_kv_bias_.value(ctx);
  // Under LightSeq2 each layer's attention reads its K and V blocks of the
  // projection rows in place, bias on load; the baselines split them into
  // head layout.
  const bool rows = layers::attention_reads_rows(ctx.policy);
  std::vector<kern::AttnOperand> kv;

  if (ctx.policy.layer_batched_cross_attn) {
    LS2_CHECK(rows) << "layer-batched cross-K/V is LightSeq2's Fig. 5b";
    // ONE GEMM for all layers' keys and values, head-sharded under TP
    // (column-parallel: no forward comm; the per-head cross attention
    // consumes each rank's own head slice).
    Tensor kv_gemm = ctx.alloc_shard({B, Ls, 2 * n * H}, dt);
    layers::tp_linear_fw(ctx, enc_out, w, kv_gemm, "decoder.cross_kv",
                         layers::TpSplit::kColumn);
    for (int64_t j = 0; j < 2 * n; ++j)
      kv.push_back(kern::AttnOperand::rows(kv_gemm, j * H, N, D, b.slice(j * H, (j + 1) * H)));
    return kv;
  }
  LS2_CHECK(ctx.tp_size() == 1)
      << "per-layer cross-K/V projection has no TP path (TP implies kLightSeq2)";
  std::vector<Tensor> heads;
  if (!rows) {
    for (int64_t i = 0; i < 2 * n; ++i) heads.push_back(ctx.alloc({B, N, Ls, D}, dt));
  }
  // Per-layer: two GEMMs (K and V) per decoder layer (+ a bias/reshape each
  // for the baselines) (Fig. 5a).
  for (int64_t j = 0; j < 2 * n; ++j) {
    Tensor wj = w.slice(j * H, (j + 1) * H);
    Tensor bj = b.slice(j * H, (j + 1) * H);
    Tensor gemm_out = ctx.alloc({B, Ls, H}, dt);
    layers::linear_fw(ctx, enc_out, wj, gemm_out, "decoder.cross_kv." + std::to_string(j / 2));
    if (rows) {
      kv.push_back(kern::AttnOperand::rows(gemm_out, 0, N, D, bj));
    } else {
      kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, gemm_out, bj,
                                    {heads[static_cast<size_t>(j)]});
    }
  }
  if (rows) return kv;
  return {heads.begin(), heads.end()};
}

Tensor Transformer::cross_kv_backward(LayerContext& ctx, const std::vector<Tensor>& dkv) {
  LS2_CHECK(saved_.has_value());
  const Saved& s = *saved_;
  const int64_t B = s.enc_out.shape()[0], Ls = s.enc_out.shape()[1];
  const int64_t H = cfg_.hidden, n = cfg_.decoder_layers;
  const DType dt = dkv[0].dtype();
  const Tensor w = cross_kv_weight_.value(ctx);
  Tensor d_enc = ctx.alloc({B, Ls, H}, dt);
  // Under LightSeq2 the decoder layers' attn_bw wrote the gradient rows
  // (and folded the bias gradient); the baselines merge their head-layout
  // gradients back and reduce it here.
  const bool rows = layers::attention_reads_rows(ctx.policy);
  const bool folded = rows && ctx.policy.fold_bias_grad;

  if (ctx.policy.layer_batched_cross_attn) {
    const Tensor& dkv_gemm = dkv[0];  // LightSeq2's rows [B, Ls, 2nH]
    if (!folded) {
      layers::TpChargeScale tp_scale(ctx);
      auto db = cross_kv_bias_.grad(ctx);
      kern::bias_grad(ctx.kern, dkv_gemm, db.tensor());
    }
    // Column-parallel backward: the d_enc partial sum is the projection's
    // TP all-reduce, overlapped with the dW GEMM inside tp_linear_bw.
    auto dw = cross_kv_weight_.grad(ctx);
    layers::tp_linear_bw(ctx, dkv_gemm, s.enc_out, w, d_enc, dw.tensor(),
                         "decoder.cross_kv", layers::TpSplit::kColumn);
    return d_enc;
  }
  LS2_CHECK(ctx.tp_size() == 1)
      << "per-layer cross-K/V projection has no TP path (TP implies kLightSeq2)";
  // Per-layer path accumulates into d_enc with one extra add per GEMM.
  for (int64_t j = 0; j < 2 * n; ++j) {
    const Tensor& dj = dkv[static_cast<size_t>(j)];
    Tensor dgemm = rows ? dj : ctx.alloc({B, Ls, H}, dt);
    if (!rows) kern::split_transpose_bw(ctx.kern, ctx.policy.transform, {dj}, dgemm);
    if (!folded) {
      kern::bias_grad(ctx.kern, dgemm,
                      params_.grad(cross_kv_bias_.rank0()).slice(j * H, (j + 1) * H));
    }
    Tensor wj = w.slice(j * H, (j + 1) * H);
    Tensor dwj = params_.grad(cross_kv_weight_.rank0()).slice(j * H, (j + 1) * H);
    if (j == 0) {
      layers::linear_bw(ctx, dgemm, s.enc_out, wj, d_enc, dwj, "decoder.cross_kv");
    } else {
      Tensor d_tmp = ctx.alloc({B, Ls, H}, dt);
      layers::linear_bw(ctx, dgemm, s.enc_out, wj, d_tmp, dwj, "decoder.cross_kv");
      kern::baseline::add(ctx.kern, d_tmp, d_enc, d_enc);
    }
  }
  return d_enc;
}

const layers::PpPlan& Transformer::pp_configure(int pp) {
  layers::PpPlan plan(pp);
  const int64_t enc = cfg_.encoder_layers, dec = cfg_.decoder_layers;
  // Stage budget split proportional to depth, at least one stage per side.
  int pe = pp == 1 ? 1
                   : std::clamp(static_cast<int>((pp * enc + (enc + dec) / 2) / (enc + dec)),
                                1, pp - 1);
  const int pd = pp == 1 ? 1 : pp - pe;
  LS2_CHECK(enc >= pe && dec >= pd)
      << "pp " << pp << " (encoder " << pe << " + decoder " << pd
      << " stages) needs at least one layer per stage (" << enc << "+" << dec << " layers)";
  // Declaration order is src_embed, tgt_embed, enc layers, enc_ln,
  // cross_kv, dec layers, dec_ln, criterion — each range lands on exactly
  // one stage (tgt_range_/criterion_range_ are empty when tied).
  plan.stage_params.front().push_back(src_range_);
  plan.stage_params[static_cast<size_t>(pp - pd)].push_back(tgt_range_);
  encoder_->place(plan, 0, pe);
  plan.stage_params[static_cast<size_t>(pe - 1)].push_back(enc_ln_->range());
  // The layer-batched cross-K/V projection consumes enc_out where it is
  // produced: the last encoder stage.
  plan.stage_params[static_cast<size_t>(pe - 1)].push_back(cross_kv_range_);
  decoder_->place(plan, pp - pd, pd);
  plan.stage_params.back().push_back(dec_ln_->range());
  plan.stage_params.back().push_back(criterion_range_);
  // The tied token table is declared with the source embedding on stage 0
  // but written last by the criterion backward on stage pp-1 — that
  // gradient rides one extra hop home before stage 0's bucket can launch.
  if (pp > 1 && cfg_.tied_embeddings) plan.tied_param = src_embed_->table().rank0();
  return pp_plan_ = std::move(plan);
}

layers::CriterionResult Transformer::forward(LayerContext& ctx, const MtBatch& batch) {
  // Peer-shard grads mirror rank 0's zeroed-at-step-start contract (host
  // bookkeeping — rank 0's zero_grad launch is the charged one). Under
  // microbatched execution peers accumulate across microbatches.
  if (tp_ && ctx.kern.microbatch == 0) tp_->zero_grads();

  // Encoder, then cross-attention K/V for every decoder layer.
  ctx.pp_enter(0, /*forward=*/true, 0);
  const Tensor enc_out = enc_ln_->forward(
      ctx, encoder_->forward(ctx, src_embed_->forward(ctx, batch.src_ids),
                             [&](auto& layer, int64_t, const Tensor& x) {
                               return layer.forward(ctx, x, &batch.src_lens);
                             }));
  std::vector<kern::AttnOperand> kv = project_cross_kv(ctx, enc_out);

  // Decoder. Crossing into the first decoder stage carries every layer's
  // cross K/V (the target embedding reads host token ids, not enc state);
  // later boundaries carry the hidden state plus the K/V still needed by
  // downstream layers.
  const layers::StackCarry kv_from = kv_bytes_from(kv);
  ctx.pp_enter(decoder_->stage(0), true, kv_from(0));
  const Tensor d = decoder_->forward(
      ctx, tgt_embed_->forward(ctx, batch.tgt_in),
      [&](auto& layer, int64_t i, const Tensor& x) {
        return layer.forward(ctx, x, kv[static_cast<size_t>(2 * i)],
                             kv[static_cast<size_t>(2 * i + 1)], &batch.src_lens, &batch.tgt_lens);
      },
      kv_from);

  layers::CriterionResult result =
      criterion_->forward(ctx, dec_ln_->forward(ctx, d), batch.tgt_out);
  saved_ = Saved{enc_out, std::move(kv)};
  return result;
}

void Transformer::backward(LayerContext& ctx) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  const Saved& s = *saved_;
  const DType dt = params_.dtype();
  const int64_t B = s.enc_out.shape()[0], Ls = s.enc_out.shape()[1];
  const int64_t N = cfg_.heads, D = cfg_.hidden / N;

  ctx.pp_enter(pp_plan_.stages - 1, /*forward=*/false, 0);
  const Tensor d_dec_out = criterion_->backward(ctx);
  // With tied embeddings the criterion wrote into the shared token table,
  // which keeps accumulating until the source embedding backward — so only
  // an untied criterion's own projection is final here.
  params_.notify_grad_ready(criterion_range_);
  Tensor d_dec = dec_ln_->backward(ctx, d_dec_out);

  // Decoder layers (reverse), accumulating cross K/V grads into zeroed
  // buffers: under LightSeq2 the projection's gradient rows (one
  // [B, Ls, 2nH] buffer layer-batched, one [B, Ls, H] per GEMM per layer),
  // for the baselines one head-layout tensor per K and V. Zeroing them is
  // real device work: one fused launch under LightSeq2, one per tensor for
  // the baselines.
  const bool rows = layers::attention_reads_rows(ctx.policy);
  const bool batched = ctx.policy.layer_batched_cross_attn;
  const int64_t n = cfg_.decoder_layers, H = cfg_.hidden;
  std::vector<Tensor> dkv_bufs;
  if (batched) dkv_bufs.push_back(ctx.alloc_shard({B, Ls, 2 * n * H}, dt));
  for (int64_t i = 0; i < 2 * n && !batched; ++i) {
    dkv_bufs.push_back(ctx.alloc_shard(rows ? Shape{B, Ls, H} : Shape{B, N, Ls, D}, dt));
  }
  {
    layers::TpChargeScale tp_scale(ctx);  // zeroing covers the head shard
    const int zero_launches =
        ctx.policy.fused_elementwise ? 1 : static_cast<int>(dkv_bufs.size());
    int64_t total = 0;
    for (const Tensor& t : dkv_bufs) total += static_cast<int64_t>(t.bytes());
    for (int i = 0; i < zero_launches; ++i) {
      simgpu::KernelDesc d;
      d.name = ctx.policy.fused_elementwise ? "ls2.zero_dkv" : "torch.zero";
      d.bytes_written = total / zero_launches;
      d.mem_efficiency = ctx.policy.fused_elementwise ? 0.9 : 0.7;
      ctx.kern.dev.launch(d, i == 0 ? std::function<void()>([&] {
        for (Tensor& t : dkv_bufs) t.zero_();
      })
                                    : std::function<void()>(nullptr));
    }
  }
  // Each layer's K and V gradient operands. Under LightSeq2 they carry the
  // layer's slices of the cross-K/V bias gradient, which attn_bw folds.
  std::optional<layers::TpParam::GradScope> db;
  if (rows && ctx.policy.fold_bias_grad) db.emplace(cross_kv_bias_, ctx);
  std::vector<kern::AttnOperand> dkv;
  for (int64_t j = 0; j < 2 * n; ++j) {
    const Tensor& buf = dkv_bufs[batched ? 0 : static_cast<size_t>(j)];
    if (!rows) {
      dkv.push_back(buf);
      continue;
    }
    dkv.push_back(kern::AttnOperand::rows(buf, batched ? j * H : 0, N, D, {},
                                          db ? db->tensor().slice(j * H, (j + 1) * H)
                                             : Tensor()));
  }
  // A boundary carries d plus the cross-K/V grads already produced by
  // later-stage layers, all bound for the projection backward on stage
  // pe-1.
  const layers::StackCarry dkv_from = kv_bytes_from(dkv);
  d_dec = decoder_->backward(
      ctx, std::move(d_dec),
      [&](auto& layer, int64_t i, const Tensor& dy) {
        return layer.backward(ctx, dy, dkv[static_cast<size_t>(2 * i)],
                              dkv[static_cast<size_t>(2 * i + 1)]);
      },
      dkv_from);
  db.reset();
  tgt_embed_->backward(ctx, d_dec);
  params_.notify_grad_ready(tgt_range_);  // empty when the table is tied

  // Cross K/V projection backward -> gradient into the encoder output
  // (computed after the 0-th decoder layer finishes, as in §IV-A.4).
  ctx.pp_enter(encoder_->stage(encoder_->size() - 1), false, dkv_from(0));
  const Tensor d_enc_out = cross_kv_backward(ctx, dkv_bufs);
  dkv.clear();
  dkv_bufs.clear();
  params_.notify_grad_ready(cross_kv_range_);

  const Tensor d_enc = encoder_->backward(ctx, enc_ln_->backward(ctx, d_enc_out));
  src_embed_->backward(ctx, d_enc);
  params_.notify_grad_ready(src_range_);  // shared token table now final
  release();
}

void Transformer::release() {
  saved_.reset();
  src_embed_->release();
  tgt_embed_->release();
  encoder_->release();
  enc_ln_->release();
  decoder_->release();
  dec_ln_->release();
  criterion_->release();
}

}  // namespace ls2::models
