#include "models/transformer.h"

#include <algorithm>

#include "gemm/gemm_device.h"
#include "kernels/elementwise.h"
#include "kernels/layernorm.h"
#include "kernels/transform.h"
#include "layers/linear.h"

namespace ls2::models {

using layers::LayerContext;

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
  for (int64_t i = 0; i < cfg.encoder_layers; ++i) {
    mark = params_.size();
    encoder_.push_back(std::make_unique<layers::TransformerEncoderLayer>(
        params_, "encoder.layers." + std::to_string(i), lcfg));
    enc_ranges_.push_back(params_.range_since(mark));
  }
  mark = params_.size();
  enc_ln_gamma_ = params_.declare("encoder.ln.gamma", Shape{cfg.hidden}, layers::Init::kOne);
  enc_ln_beta_ = params_.declare("encoder.ln.beta", Shape{cfg.hidden}, layers::Init::kZero);
  enc_ln_range_ = params_.range_since(mark);

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
  for (int64_t i = 0; i < cfg.decoder_layers; ++i) {
    mark = params_.size();
    decoder_.push_back(std::make_unique<layers::TransformerDecoderLayer>(
        params_, "decoder.layers." + std::to_string(i), lcfg));
    dec_ranges_.push_back(params_.range_since(mark));
  }
  mark = params_.size();
  dec_ln_gamma_ = params_.declare("decoder.ln.gamma", Shape{cfg.hidden}, layers::Init::kOne);
  dec_ln_beta_ = params_.declare("decoder.ln.beta", Shape{cfg.hidden}, layers::Init::kZero);
  dec_ln_range_ = params_.range_since(mark);

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

std::vector<Tensor> Transformer::project_cross_kv(LayerContext& ctx, const Tensor& enc_out) {
  const int64_t B = enc_out.shape()[0], Ls = enc_out.shape()[1], H = cfg_.hidden;
  const int64_t N = cfg_.heads, D = H / N, n = cfg_.decoder_layers;
  const DType dt = enc_out.dtype();
  const Tensor w = cross_kv_weight_.value(ctx);
  const Tensor b = cross_kv_bias_.value(ctx);

  // Head-sharded under TP (column-parallel: no forward comm; the per-head
  // cross attention consumes each rank's own head slice).
  std::vector<Tensor> kv;
  kv.reserve(static_cast<size_t>(2 * n));
  for (int64_t i = 0; i < 2 * n; ++i) kv.push_back(ctx.alloc_shard({B, N, Ls, D}, dt));

  if (ctx.policy.layer_batched_cross_attn) {
    // ONE GEMM for all layers' keys and values, one fused bias+split.
    Tensor kv_gemm = ctx.alloc_shard({B, Ls, 2 * n * H}, dt);
    layers::tp_linear_fw(ctx, enc_out, w, kv_gemm, "decoder.cross_kv",
                         layers::TpSplit::kColumn);
    {
      layers::TpChargeScale tp_scale(ctx);
      kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, kv_gemm, b, kv);
    }
    return kv;
  }
  LS2_CHECK(ctx.tp_size() == 1)
      << "per-layer cross-K/V projection has no TP path (TP implies kLightSeq2)";
  // Per-layer: two GEMMs (K and V) + bias/reshape per decoder layer (Fig. 5a).
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t g = 0; g < 2; ++g) {
      Tensor wi = w.slice((2 * i + g) * H, (2 * i + g + 1) * H);
      Tensor bi = b.slice((2 * i + g) * H, (2 * i + g + 1) * H);
      Tensor gemm_out = ctx.alloc({B, Ls, H}, dt);
      layers::linear_fw(ctx, enc_out, wi, gemm_out,
                        "decoder.cross_kv." + std::to_string(i));
      kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, gemm_out, bi,
                                    {kv[static_cast<size_t>(2 * i + g)]});
    }
  }
  return kv;
}

Tensor Transformer::cross_kv_backward(LayerContext& ctx, const std::vector<Tensor>& dkv) {
  LS2_CHECK(saved_.has_value());
  const Saved& s = *saved_;
  const int64_t B = s.B, Ls = s.Ls, H = cfg_.hidden, n = cfg_.decoder_layers;
  const DType dt = dkv[0].dtype();
  const Tensor w = cross_kv_weight_.value(ctx);
  Tensor d_enc = ctx.alloc({B, Ls, H}, dt);

  if (ctx.policy.layer_batched_cross_attn) {
    Tensor dkv_gemm = ctx.alloc_shard({B, Ls, 2 * n * H}, dt);
    {
      layers::TpChargeScale tp_scale(ctx);
      kern::split_transpose_bw(ctx.kern, ctx.policy.transform, dkv, dkv_gemm);
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
  bool first = true;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t g = 0; g < 2; ++g) {
      Tensor dgemm = ctx.alloc({B, Ls, H}, dt);
      kern::split_transpose_bw(ctx.kern, ctx.policy.transform,
                               {dkv[static_cast<size_t>(2 * i + g)]}, dgemm);
      Tensor bi_grad = params_.grad(cross_kv_bias_.rank0()).slice((2 * i + g) * H,
                                                          (2 * i + g + 1) * H);
      kern::bias_grad(ctx.kern, dgemm, bi_grad);
      Tensor wi = w.slice((2 * i + g) * H, (2 * i + g + 1) * H);
      Tensor dwi = params_.grad(cross_kv_weight_.rank0()).slice((2 * i + g) * H,
                                                        (2 * i + g + 1) * H);
      if (first) {
        layers::linear_bw(ctx, dgemm, s.enc_out, wi, d_enc, dwi, "decoder.cross_kv");
        first = false;
      } else {
        Tensor d_tmp = ctx.alloc({B, Ls, H}, dt);
        layers::linear_bw(ctx, dgemm, s.enc_out, wi, d_tmp, dwi, "decoder.cross_kv");
        kern::baseline::add(ctx.kern, d_tmp, d_enc, d_enc);
      }
    }
  }
  return d_enc;
}

infer::KvCacheConfig Transformer::kv_cache_config(int64_t slots, int64_t max_len,
                                                  int64_t cross_len) const {
  infer::KvCacheConfig kcfg;
  kcfg.layers = cfg_.decoder_layers;
  kcfg.heads = cfg_.heads;
  kcfg.head_dim = cfg_.hidden / cfg_.heads;
  kcfg.slots = slots;
  kcfg.seq_tokens = std::min<int64_t>(max_len, cfg_.max_len);
  kcfg.page_tokens = std::min<int64_t>(infer::kDefaultPageTokens, kcfg.seq_tokens);
  kcfg.cross_len = cross_len;
  kcfg.dtype = params_.dtype();
  return kcfg;
}

void Transformer::encode(LayerContext& ctx, const Tensor& src_ids, const Tensor& src_lens,
                         infer::KvCache& cache,
                         const std::vector<infer::SequenceHandle>& seqs) {
  LS2_CHECK(ctx.tp_size() == 1 && !cfg_.tp.enabled())
      << "serving runs unsharded (TP is a training feature)";
  const int64_t B = src_ids.shape()[0], Ls = src_ids.shape()[1], H = cfg_.hidden;
  LS2_CHECK_EQ(B, static_cast<int64_t>(seqs.size()));
  LS2_CHECK_LE(Ls, cache.config().cross_len);
  const DType dt = params_.dtype();

  Tensor h = src_embed_->prefill(ctx, src_ids);
  for (auto& layer : encoder_) h = layer->prefill(ctx, h, &src_lens);
  Tensor enc_out = ctx.alloc({B, Ls, H}, dt);
  Tensor mean = ctx.alloc({B * Ls}, DType::kF32);
  Tensor rstd = ctx.alloc({B * Ls}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, h, params_.value(enc_ln_gamma_),
                     params_.value(enc_ln_beta_), enc_out, mean, rstd);

  // Layer-batched cross K/V (Fig. 5b), computed once per request and
  // installed in the cache for every future decode step.
  std::vector<Tensor> kv = project_cross_kv(ctx, enc_out);
  Tensor slot_ids = Tensor::empty({B}, DType::kI32);  // heap: host metadata
  int32_t* sp = slot_ids.data<int32_t>();
  for (int64_t b = 0; b < B; ++b)
    sp[b] = static_cast<int32_t>(cache.lane(seqs[static_cast<size_t>(b)]));
  const int32_t* lens = src_lens.data<int32_t>();
  for (int64_t i = 0; i < cfg_.decoder_layers; ++i) {
    kern::kv_cache_store(ctx.kern, ctx.policy.transform, kv[static_cast<size_t>(2 * i)],
                         kv[static_cast<size_t>(2 * i + 1)], cache.cross_k(i),
                         cache.cross_v(i), slot_ids);
  }
  for (int64_t b = 0; b < B; ++b)
    cache.set_src_len(seqs[static_cast<size_t>(b)], lens[b]);
}

Tensor Transformer::prefill(LayerContext& ctx, const Tensor& tgt_in, infer::KvCache& cache,
                            const std::vector<infer::SequenceHandle>& seqs,
                            const Tensor* tgt_lens) {
  const int64_t B = tgt_in.shape()[0], Lp = tgt_in.shape()[1], H = cfg_.hidden;
  LS2_CHECK_EQ(B, static_cast<int64_t>(seqs.size()));
  const DType dt = params_.dtype();

  // Heap: host-written metadata.
  Tensor lanes = Tensor::empty({B}, DType::kI32);
  Tensor wbegin = Tensor::empty({B}, DType::kI32);
  Tensor wend = Tensor::empty({B}, DType::kI32);
  {
    int32_t* lp = lanes.data<int32_t>();
    int32_t* bp = wbegin.data<int32_t>();
    int32_t* ep = wend.data<int32_t>();
    for (int64_t b = 0; b < B; ++b) {
      const infer::SequenceHandle h = seqs[static_cast<size_t>(b)];
      lp[b] = static_cast<int32_t>(cache.lane(h));
      bp[b] = cache.write_begin(h);
      ep[b] = static_cast<int32_t>(std::min<int64_t>(Lp, cache.len(h)));
    }
  }
  Tensor h = tgt_embed_->prefill(ctx, tgt_in);
  for (size_t i = 0; i < decoder_.size(); ++i) {
    Tensor k_new, v_new;
    h = decoder_[i]->prefill(ctx, h, tgt_lens, cache.cross_k(static_cast<int64_t>(i)),
                             cache.cross_v(static_cast<int64_t>(i)), &cache.src_lens(),
                             &k_new, &v_new);
    kern::kv_cache_store_paged(ctx.kern, ctx.policy.transform, k_new, v_new,
                               cache.k_pool(static_cast<int64_t>(i)),
                               cache.v_pool(static_cast<int64_t>(i)), cache.block_table(),
                               lanes, wbegin, wend);
  }
  Tensor out = ctx.alloc({B, Lp, H}, dt);
  Tensor mean = ctx.alloc({B * Lp}, DType::kF32);
  Tensor rstd = ctx.alloc({B * Lp}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, h, params_.value(dec_ln_gamma_),
                     params_.value(dec_ln_beta_), out, mean, rstd);
  return criterion_->infer_logits(ctx, out).view({B, Lp, cfg_.vocab});
}

Tensor Transformer::decode_step(LayerContext& ctx, const Tensor& ids,
                                infer::KvCache& cache) {
  const int64_t S = cache.config().slots, H = cfg_.hidden;
  LS2_CHECK_EQ(ids.shape()[0], S) << "decode runs the full slot batch";
  Tensor h = tgt_embed_->decode_step(ctx, ids, cache.positions());
  for (size_t i = 0; i < decoder_.size(); ++i) {
    h = decoder_[i]->decode_step(ctx, h, cache.k_pool(static_cast<int64_t>(i)),
                                 cache.v_pool(static_cast<int64_t>(i)), cache.block_table(),
                                 cache.positions(), cache.attend_lens(),
                                 cache.cross_k(static_cast<int64_t>(i)),
                                 cache.cross_v(static_cast<int64_t>(i)), &cache.src_lens());
  }
  Tensor out = ctx.alloc({S, 1, H}, params_.dtype());
  Tensor mean = ctx.alloc({S}, DType::kF32);
  Tensor rstd = ctx.alloc({S}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, h, params_.value(dec_ln_gamma_),
                     params_.value(dec_ln_beta_), out, mean, rstd);
  return criterion_->infer_logits(ctx, out);  // [S, vocab]
}

const layers::PpPlan& Transformer::pp_configure(int pp) {
  LS2_CHECK(pp >= 1) << "pp " << pp;
  const int64_t enc = cfg_.encoder_layers, dec = cfg_.decoder_layers;
  // Stage budget split proportional to depth, at least one stage per side.
  int pe = pp == 1 ? 1
                   : std::clamp(static_cast<int>((pp * enc + (enc + dec) / 2) / (enc + dec)),
                                1, pp - 1);
  const int pd = pp == 1 ? 1 : pp - pe;
  LS2_CHECK(enc >= pe && dec >= pd)
      << "pp " << pp << " (encoder " << pe << " + decoder " << pd
      << " stages) needs at least one layer per stage (" << enc << "+" << dec << " layers)";
  pp_encoder_stages_ = pe;
  pp_plan_ = layers::PpPlan{};
  pp_plan_.stages = pp;
  pp_plan_.stage_params.assign(static_cast<size_t>(pp), {});
  auto stage_of = [pp](int s) { return std::min(s, pp - 1); };
  pp_plan_.stage_params[0].push_back(src_range_);
  enc_stage_.assign(static_cast<size_t>(enc), 0);
  dec_stage_.assign(static_cast<size_t>(dec), 0);
  // Declaration order is src_embed, tgt_embed, enc layers, enc_ln,
  // cross_kv, dec layers, dec_ln, criterion — each range lands on exactly
  // one stage (tgt_range_/criterion_range_ are empty when tied).
  pp_plan_.stage_params[static_cast<size_t>(stage_of(pe))].push_back(tgt_range_);
  for (int64_t i = 0; i < enc; ++i) {
    const int s = layers::block_stage(i, enc, pe);
    enc_stage_[static_cast<size_t>(i)] = s;
    pp_plan_.stage_params[static_cast<size_t>(s)].push_back(
        enc_ranges_[static_cast<size_t>(i)]);
  }
  pp_plan_.stage_params[static_cast<size_t>(pe - 1)].push_back(enc_ln_range_);
  // The layer-batched cross-K/V projection consumes enc_out where it is
  // produced: the last encoder stage.
  pp_plan_.stage_params[static_cast<size_t>(pe - 1)].push_back(cross_kv_range_);
  for (int64_t i = 0; i < dec; ++i) {
    const int s = pp == 1 ? 0 : pe + layers::block_stage(i, dec, pd);
    dec_stage_[static_cast<size_t>(i)] = s;
    pp_plan_.stage_params[static_cast<size_t>(s)].push_back(
        dec_ranges_[static_cast<size_t>(i)]);
  }
  pp_plan_.stage_params[static_cast<size_t>(pp - 1)].push_back(dec_ln_range_);
  pp_plan_.stage_params[static_cast<size_t>(pp - 1)].push_back(criterion_range_);
  // The tied token table is declared with the source embedding on stage 0
  // but written last by the criterion backward on stage pp-1 — that
  // gradient rides one extra hop home before stage 0's bucket can launch.
  if (pp > 1 && cfg_.tied_embeddings) pp_plan_.tied_param = src_embed_->table().rank0();
  return pp_plan_;
}

layers::CriterionResult Transformer::forward(LayerContext& ctx, const MtBatch& batch) {
  // Peer-shard grads mirror rank 0's zeroed-at-step-start contract (host
  // bookkeeping — rank 0's zero_grad launch is the charged one). Under
  // microbatched execution peers accumulate across microbatches.
  if (tp_ && ctx.kern.microbatch == 0) tp_->zero_grads();
  const int64_t B = batch.src_ids.shape()[0];
  const int64_t Ls = batch.src_ids.shape()[1];
  const int64_t Lt = batch.tgt_in.shape()[1];
  const DType dt = params_.dtype();

  // Encoder.
  ctx.pp_enter(0, /*forward=*/true, 0);
  Tensor h = src_embed_->forward(ctx, batch.src_ids);
  for (size_t i = 0; i < encoder_.size(); ++i) {
    if (!enc_stage_.empty() && i > 0 && enc_stage_[i] != enc_stage_[i - 1]) {
      ctx.pp_enter(enc_stage_[i], true, static_cast<int64_t>(h.bytes()));
    }
    h = encoder_[i]->forward(ctx, h, &batch.src_lens);
  }
  Tensor enc_stack_out = h;
  Tensor enc_out = ctx.alloc({B, Ls, cfg_.hidden}, dt);
  Tensor enc_mean = ctx.alloc({B * Ls}, DType::kF32);
  Tensor enc_rstd = ctx.alloc({B * Ls}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, enc_stack_out,
                     params_.value(enc_ln_gamma_), params_.value(enc_ln_beta_), enc_out,
                     enc_mean, enc_rstd);

  // Cross-attention K/V for every decoder layer.
  std::vector<Tensor> kv = project_cross_kv(ctx, enc_out);

  // Decoder. Crossing into the first decoder stage carries every layer's
  // cross K/V (the target embedding reads host token ids, not enc state);
  // later boundaries carry the hidden state plus the K/V still needed by
  // downstream layers.
  if (pp_plan_.stages > 1) {
    int64_t kv_bytes = 0;
    for (const Tensor& t : kv) kv_bytes += static_cast<int64_t>(t.bytes());
    ctx.pp_enter(pp_encoder_stages_, true, kv_bytes);
  }
  Tensor d = tgt_embed_->forward(ctx, batch.tgt_in);
  for (size_t i = 0; i < decoder_.size(); ++i) {
    if (!dec_stage_.empty() && i > 0 && dec_stage_[i] != dec_stage_[i - 1]) {
      int64_t payload = static_cast<int64_t>(d.bytes());
      for (size_t l = i; l < decoder_.size(); ++l) {
        payload += static_cast<int64_t>(kv[2 * l].bytes() + kv[2 * l + 1].bytes());
      }
      ctx.pp_enter(dec_stage_[i], true, payload);
    }
    d = decoder_[i]->forward(ctx, d, kv[2 * i], kv[2 * i + 1], &batch.src_lens,
                             &batch.tgt_lens);
  }
  Tensor dec_stack_out = d;
  Tensor dec_out = ctx.alloc({B, Lt, cfg_.hidden}, dt);
  Tensor dec_mean = ctx.alloc({B * Lt}, DType::kF32);
  Tensor dec_rstd = ctx.alloc({B * Lt}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, dec_stack_out,
                     params_.value(dec_ln_gamma_), params_.value(dec_ln_beta_), dec_out,
                     dec_mean, dec_rstd);

  layers::CriterionResult result = criterion_->forward(ctx, dec_out, batch.tgt_out);
  saved_ = Saved{batch.src_lens, batch.tgt_lens, enc_stack_out, enc_out,     enc_mean,
                 enc_rstd,       dec_stack_out,  dec_out,       dec_mean,    dec_rstd,
                 std::move(kv),  B,              Ls,            Lt};
  return result;
}

void Transformer::backward(LayerContext& ctx) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const DType dt = params_.dtype();
  const int64_t H = cfg_.hidden;
  const int64_t N = cfg_.heads, D = H / N;

  ctx.pp_enter(pp_plan_.stages - 1, /*forward=*/false, 0);
  Tensor d_dec_out = criterion_->backward(ctx);
  // With tied embeddings the criterion wrote into the shared token table,
  // which keeps accumulating until the source embedding backward — so only
  // an untied criterion's own projection is final here.
  params_.notify_grad_ready(criterion_range_);

  // Final decoder LayerNorm.
  Tensor d_dec = ctx.alloc({s.B, s.Lt, H}, dt);
  kern::layernorm_bw(ctx.kern, ctx.policy.layernorm, d_dec_out, s.dec_stack_out,
                     params_.value(dec_ln_gamma_), s.dec_mean, s.dec_rstd, d_dec,
                     params_.grad(dec_ln_gamma_), params_.grad(dec_ln_beta_));
  params_.notify_grad_ready(dec_ln_range_);

  // Decoder layers (reverse), accumulating cross K/V grads. Zeroing the
  // accumulators is real device work: one fused launch under LightSeq2, one
  // per tensor for the baselines.
  std::vector<Tensor> dkv;
  for (int64_t i = 0; i < 2 * cfg_.decoder_layers; ++i) {
    dkv.push_back(ctx.alloc_shard({s.B, N, s.Ls, D}, dt));
  }
  {
    layers::TpChargeScale tp_scale(ctx);  // zeroing covers the head shard
    const int zero_launches =
        ctx.policy.fused_elementwise ? 1 : static_cast<int>(dkv.size());
    const int64_t each = static_cast<int64_t>(dkv.size()) *
                         static_cast<int64_t>(dkv[0].bytes()) / zero_launches;
    for (int i = 0; i < zero_launches; ++i) {
      simgpu::KernelDesc d;
      d.name = ctx.policy.fused_elementwise ? "ls2.zero_dkv" : "torch.zero";
      d.bytes_written = each;
      d.mem_efficiency = ctx.policy.fused_elementwise ? 0.9 : 0.7;
      ctx.kern.dev.launch(d, i == 0 ? std::function<void()>([&] {
        for (Tensor& t : dkv) t.zero_();
      })
                                    : std::function<void()>(nullptr));
    }
  }
  for (int64_t i = cfg_.decoder_layers - 1; i >= 0; --i) {
    if (!dec_stage_.empty() && i + 1 < cfg_.decoder_layers &&
        dec_stage_[static_cast<size_t>(i)] != dec_stage_[static_cast<size_t>(i + 1)]) {
      // d plus the cross-K/V grads already produced by later-stage layers,
      // all bound for the projection backward on stage pe-1.
      int64_t payload = static_cast<int64_t>(d_dec.bytes());
      for (int64_t l = i + 1; l < cfg_.decoder_layers; ++l) {
        payload += static_cast<int64_t>(dkv[static_cast<size_t>(2 * l)].bytes() +
                                        dkv[static_cast<size_t>(2 * l + 1)].bytes());
      }
      ctx.pp_enter(dec_stage_[static_cast<size_t>(i)], false, payload);
    }
    d_dec = decoder_[static_cast<size_t>(i)]->backward(
        ctx, d_dec, dkv[static_cast<size_t>(2 * i)], dkv[static_cast<size_t>(2 * i + 1)]);
    params_.notify_grad_ready(dec_ranges_[static_cast<size_t>(i)]);
  }
  tgt_embed_->backward(ctx, d_dec);
  params_.notify_grad_ready(tgt_range_);  // empty when the table is tied

  // Cross K/V projection backward -> gradient into the encoder output
  // (computed after the 0-th decoder layer finishes, as in §IV-A.4).
  if (pp_plan_.stages > 1) {
    int64_t dkv_bytes = 0;
    for (const Tensor& t : dkv) dkv_bytes += static_cast<int64_t>(t.bytes());
    ctx.pp_enter(pp_encoder_stages_ - 1, false, dkv_bytes);
  }
  Tensor d_enc_out = cross_kv_backward(ctx, dkv);
  dkv.clear();
  params_.notify_grad_ready(cross_kv_range_);

  // Final encoder LayerNorm.
  Tensor d_enc = ctx.alloc({s.B, s.Ls, H}, dt);
  kern::layernorm_bw(ctx.kern, ctx.policy.layernorm, d_enc_out, s.enc_stack_out,
                     params_.value(enc_ln_gamma_), s.enc_mean, s.enc_rstd, d_enc,
                     params_.grad(enc_ln_gamma_), params_.grad(enc_ln_beta_));
  params_.notify_grad_ready(enc_ln_range_);

  for (int64_t i = cfg_.encoder_layers - 1; i >= 0; --i) {
    if (!enc_stage_.empty() && i + 1 < cfg_.encoder_layers &&
        enc_stage_[static_cast<size_t>(i)] != enc_stage_[static_cast<size_t>(i + 1)]) {
      ctx.pp_enter(enc_stage_[static_cast<size_t>(i)], false,
                   static_cast<int64_t>(d_enc.bytes()));
    }
    d_enc = encoder_[static_cast<size_t>(i)]->backward(ctx, d_enc);
    params_.notify_grad_ready(enc_ranges_[static_cast<size_t>(i)]);
  }
  src_embed_->backward(ctx, d_enc);
  params_.notify_grad_ready(src_range_);  // shared token table now final
  release();
}

void Transformer::release() {
  saved_.reset();
  src_embed_->release();
  tgt_embed_->release();
  for (auto& l : encoder_) l->release();
  for (auto& l : decoder_) l->release();
  criterion_->release();
}

}  // namespace ls2::models
