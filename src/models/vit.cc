#include "models/vit.h"

#include "common/parallel.h"
#include "layers/linear.h"

namespace ls2::models {

namespace {

// y[B, P+1, H] = Dropout(concat(cls+pos0, proj+b+pos[1..])) — fused for
// LightSeq2, four framework launches otherwise. The math runs once.
template <typename T>
void vit_embed_body(const Tensor& proj, const Tensor& bias, const Tensor& cls_token,
                    const Tensor& pos, const Tensor& y, const Tensor& mask, float p,
                    const Rng& rng, uint64_t stream, uint64_t index_offset) {
  const int64_t B = proj.shape()[0], P = proj.shape()[1], H = proj.shape()[2];
  const int64_t S = P + 1;
  const T* pp = proj.data<T>();
  const T* bp = bias.data<T>();
  const T* cp = cls_token.data<T>();
  const T* ep = pos.data<T>();
  T* yp = y.data<T>();
  uint8_t* mp = mask.data<uint8_t>();
  const float keep_scale = 1.0f / (1.0f - p);
  parallel_for(0, B * S, [&](int64_t bs) {
    const int64_t b = bs / S, s = bs % S;
    T* yrow = yp + bs * H;
    uint8_t* mrow = mp + bs * H;
    for (int64_t j = 0; j < H; ++j) {
      float v;
      if (s == 0) {
        v = static_cast<float>(cp[j]) + static_cast<float>(ep[j]);
      } else {
        v = static_cast<float>(pp[(b * P + s - 1) * H + j]) + static_cast<float>(bp[j]) +
            static_cast<float>(ep[s * H + j]);
      }
      const uint8_t keep =
          rng.uniform(stream, index_offset + static_cast<uint64_t>(bs * H + j)) >= p ? 1 : 0;
      mrow[j] = keep;
      yrow[j] = T(keep ? v * keep_scale : 0.0f);
    }
  });
}

template <typename T>
void vit_embed_bw_body(const Tensor& dy, const Tensor& mask, float p, const Tensor& dproj,
                       const Tensor& dbias, const Tensor& dcls, const Tensor& dpos) {
  const int64_t B = dproj.shape()[0], P = dproj.shape()[1], H = dproj.shape()[2];
  const int64_t S = P + 1;
  const T* dyp = dy.data<T>();
  const uint8_t* mp = mask.data<uint8_t>();
  T* dpp = dproj.data<T>();
  T* dbp = dbias.data<T>();
  T* dcp = dcls.data<T>();
  T* dep = dpos.data<T>();
  const float keep_scale = 1.0f / (1.0f - p);
  // Param grads accumulate in FP32 FROM the destination, ascending batch
  // rows: microbatch slices (pipeline parallelism) continue the exact
  // chain the full batch runs, so the result is bitwise identical. dproj
  // is an activation grad — each microbatch writes only its own rows.
  parallel_for_chunks(0, H, 32, [&](int64_t j_lo, int64_t j_hi) {
    for (int64_t j = j_lo; j < j_hi; ++j) {
      float db = static_cast<float>(dbp[j]), dc = static_cast<float>(dcp[j]);
      std::vector<float> dpos_acc(static_cast<size_t>(S));
      for (int64_t s = 0; s < S; ++s)
        dpos_acc[static_cast<size_t>(s)] = static_cast<float>(dep[s * H + j]);
      for (int64_t b = 0; b < B; ++b) {
        for (int64_t s = 0; s < S; ++s) {
          const int64_t idx = (b * S + s) * H + j;
          const float g = mp[idx] ? static_cast<float>(dyp[idx]) * keep_scale : 0.0f;
          dpos_acc[static_cast<size_t>(s)] += g;
          if (s == 0) {
            dc += g;
          } else {
            db += g;
            dpp[(b * P + s - 1) * H + j] = T(g);
          }
        }
      }
      dbp[j] = T(db);
      dcp[j] = T(dc);
      for (int64_t s = 0; s < S; ++s)
        dep[s * H + j] = T(dpos_acc[static_cast<size_t>(s)]);
    }
  });
}

}  // namespace

VitConfig VitConfig::b32() { return VitConfig{}; }

VitConfig VitConfig::l32() {
  VitConfig c;
  c.hidden = 1024;
  c.heads = 16;
  c.ffn_dim = 4096;
  c.layers = 24;
  return c;
}

int64_t VitConfig::parameter_count() const {
  const int64_t h = hidden, f = ffn_dim;
  const int64_t block = 3 * h * h + 3 * h + h * h + h + 4 * h + 2 * h * f + f + h;
  return layers * block + patch_dim() * h + h + h + seq_len() * h + 2 * h +
         num_classes * h + num_classes;
}

Vit::Vit(VitConfig cfg, layers::System system, DType dtype, uint64_t seed,
         BufferAllocator* param_alloc)
    : cfg_(cfg) {
  if (cfg.tp.enabled()) {
    LS2_CHECK(system == layers::System::kLightSeq2)
        << "tensor parallelism is implemented for the LightSeq2 system";
    if (cfg.tp.simulate_peers) tp_ = std::make_unique<dist::TpRuntime>(cfg.tp.size);
  }
  const layers::TpDecl tp_decl{cfg.tp.enabled() ? cfg.tp.size : 1,
                               tp_ ? &tp_->peers() : nullptr};

  const int mark = params_.size();
  patch_w_ = params_.declare("vit.patch_proj.weight", Shape{cfg.hidden, cfg.patch_dim()},
                             layers::Init::kXavier);
  patch_b_ = params_.declare("vit.patch_proj.bias", Shape{cfg.hidden}, layers::Init::kZero);
  cls_token_ = params_.declare("vit.cls_token", Shape{cfg.hidden}, layers::Init::kNormal);
  pos_embed_ = params_.declare("vit.pos_embed", Shape{cfg.seq_len(), cfg.hidden},
                               layers::Init::kNormal);
  embed_range_ = params_.range_since(mark);

  layers::TransformerLayerConfig lcfg;
  lcfg.hidden = cfg.hidden;
  lcfg.heads = cfg.heads;
  lcfg.ffn_dim = cfg.ffn_dim;
  lcfg.dropout = cfg.dropout;
  lcfg.attn_dropout = cfg.dropout;
  lcfg.act_dropout = cfg.dropout;
  lcfg.activation = layers::Activation::kGelu;
  // Blocks shard; the patch projection, [CLS]/positional embeddings and the
  // small classification head stay replicated.
  lcfg.tp = tp_decl;
  blocks_ = std::make_unique<layers::BlockStack<layers::TransformerEncoderLayer>>(
      params_, "vit.blocks", cfg.layers, lcfg);
  ln_f_ = std::make_unique<layers::LayerNorm>(params_, "vit.ln_f", cfg.hidden);
  head_ = std::make_unique<ClsHead>(params_, "vit", "head", cfg.hidden, cfg.num_classes);

  params_.materialize(dtype, system == layers::System::kLightSeq2, Rng(seed), param_alloc);
  if (tp_) tp_->materialize(dtype, seed);
}

const layers::PpPlan& Vit::pp_configure(int pp) {
  layers::PpPlan plan(pp);
  plan.stage_params.front().push_back(embed_range_);
  blocks_->place(plan, 0, pp);
  plan.stage_params.back().push_back(ln_f_->range());
  plan.stage_params.back().push_back(head_->range());
  return pp_plan_ = std::move(plan);
}

ClsResult Vit::forward(layers::LayerContext& ctx, const ImageBatch& batch) {
  // Peer mirror of the zeroed-at-step-start contract; under microbatched
  // execution peers accumulate across microbatches like the device grads.
  if (tp_ && ctx.kern.microbatch == 0) tp_->zero_grads();
  const int64_t B = batch.patches.shape()[0], P = cfg_.patches(), S = cfg_.seq_len();
  const DType dt = params_.dtype();
  ctx.pp_enter(0, /*forward=*/true, 0);
  LS2_CHECK_EQ(batch.patches.shape()[1], P);
  LS2_CHECK_EQ(batch.patches.shape()[2], cfg_.patch_dim());
  LS2_CHECK(batch.patches.dtype() == dt) << "patch dtype must match model dtype";

  Tensor proj = ctx.alloc({B, P, cfg_.hidden}, dt);
  layers::linear_fw(ctx, batch.patches, params_.value(patch_w_), proj, "vit.patch_proj");

  Tensor h = ctx.alloc({B, S, cfg_.hidden}, dt);
  Tensor mask = ctx.alloc({B, S, cfg_.hidden}, DType::kU8);
  const uint64_t stream = ctx.kern.next_dropout_stream();
  const int launches = ctx.policy.fused_elementwise ? 1 : 4;  // bias/concat/pos/dropout
  for (int i = 0; i < launches; ++i) {
    const bool last = i + 1 == launches;
    simgpu::KernelDesc d;
    d.name = ctx.policy.fused_elementwise ? "ls2.vit_embed_fw" : "torch.vit_embed_stage";
    d.bytes_read = static_cast<int64_t>(proj.bytes());
    d.bytes_written = static_cast<int64_t>(h.bytes()) / launches +
                      (last ? static_cast<int64_t>(mask.bytes()) : 0);
    d.mem_efficiency = ctx.policy.fused_elementwise ? 0.85 : 0.70;
    const uint64_t mb_off =
        ctx.kern.microbatch * static_cast<uint64_t>(B * S * cfg_.hidden);
    ctx.kern.dev.launch(d, last ? std::function<void()>([&, stream, mb_off] {
      LS2_DISPATCH_FLOAT(dt, T,
                         vit_embed_body<T>(proj, params_.value(patch_b_),
                                           params_.value(cls_token_),
                                           params_.value(pos_embed_), h, mask,
                                           cfg_.dropout, ctx.kern.rng, stream, mb_off));
    })
                                 : std::function<void()>(nullptr));
  }

  Tensor x = blocks_->forward(ctx, h, [&](auto& block, int64_t, const Tensor& in) {
    return block.forward(ctx, in, /*key_lens=*/nullptr);
  });
  ClsResult res = head_->forward(ctx, ln_f_->forward(ctx, x), batch.labels);
  saved_ = Saved{batch.patches, proj, mask, B};
  return res;
}

void Vit::backward(layers::LayerContext& ctx) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.B, P = cfg_.patches();
  const DType dt = params_.dtype();

  ctx.pp_enter(pp_plan_.stages - 1, /*forward=*/false, 0);
  const Tensor d_out = head_->backward(ctx);
  const Tensor dh = blocks_->backward(ctx, ln_f_->backward(ctx, d_out));

  // Embedding backward: dropout + split into dproj/dbias/dcls_token/dpos.
  Tensor dproj = ctx.alloc({B, P, cfg_.hidden}, dt);
  const int launches = ctx.policy.fused_elementwise ? 1 : 4;
  for (int i = 0; i < launches; ++i) {
    const bool last = i + 1 == launches;
    simgpu::KernelDesc d;
    d.name = ctx.policy.fused_elementwise ? "ls2.vit_embed_bw" : "torch.vit_embed_bw_stage";
    d.bytes_read = static_cast<int64_t>(dh.bytes()) / launches;
    d.bytes_written = static_cast<int64_t>(dproj.bytes()) / launches;
    d.mem_efficiency = ctx.policy.fused_elementwise ? 0.85 : 0.70;
    ctx.kern.dev.launch(d, last ? std::function<void()>([&] {
      LS2_DISPATCH_FLOAT(dt, T,
                         vit_embed_bw_body<T>(dh, s.embed_mask, cfg_.dropout, dproj,
                                              params_.grad(patch_b_),
                                              params_.grad(cls_token_),
                                              params_.grad(pos_embed_)));
    })
                                 : std::function<void()>(nullptr));
  }
  layers::linear_bw(ctx, dproj, s.patches_in, params_.value(patch_w_), Tensor{},
                    params_.grad(patch_w_), "vit.patch_proj");
  params_.notify_grad_ready(embed_range_);
  release();
}

void Vit::release() {
  saved_.reset();
  blocks_->release();
  ln_f_->release();
  head_->release();
}

}  // namespace ls2::models
