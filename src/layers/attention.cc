#include "layers/attention.h"

#include <cmath>

#include "gemm/gemm_device.h"
#include "kernels/elementwise.h"
#include "kernels/layernorm.h"
#include "kernels/softmax.h"
#include "kernels/transform.h"
#include "layers/linear.h"
#include "memory/block_plan.h"

namespace ls2::layers {

namespace {

/// Temporary provider for the attention backward pass: a Fig. 8 shared-block
/// plan under LightSeq2, individual dynamic allocations for baselines.
class BackwardTemps {
 public:
  BackwardTemps(LayerContext& ctx, int64_t B, int64_t N, int64_t Lq, int64_t Lk, int64_t H,
                DType dtype, bool self_attn)
      : ctx_(ctx), dtype_(dtype), tp_(ctx.tp_size() > 1) {
    // Under TP the plan's fixed lifetimes no longer describe the sharded
    // temporaries, so each one goes through alloc_shard instead (d_out —
    // the full-width dropout gradient — excepted); accounting is slightly
    // conservative (no block sharing), never optimistic.
    if (ctx.policy.system == System::kLightSeq2 && !tp_) {
      const size_t e = dtype_size(dtype);
      const size_t blh_q = static_cast<size_t>(B * Lq * H) * e;
      const size_t blh_k = static_cast<size_t>(B * Lk * H) * e;
      const size_t bl2n = static_cast<size_t>(B * N * Lq * Lk) * e;
      // Lifetimes mirror Fig. 8; disjoint temporaries share blocks.
      std::vector<mem::PlanTensor> spec = {
          {"d_out", blh_q, 1, 2}, {"dmerged", blh_q, 2, 3}, {"dctx", blh_q, 3, 5},
          {"dS", bl2n, 4, 7},     {"dv", blh_k, 5, 8},      {"dq", blh_q, 7, 8},
          {"dk", blh_k, 7, 8},
      };
      (void)self_attn;
      plan_.emplace(std::move(spec));
      plan_->materialize(ctx.activation_allocator());
    }
  }

  Tensor get(const std::string& name, Shape shape) {
    if (plan_) return plan_->tensor(name, std::move(shape), dtype_);
    if (tp_ && name != "d_out") return ctx_.alloc_shard(std::move(shape), dtype_);
    return ctx_.alloc(std::move(shape), dtype_);
  }

 private:
  LayerContext& ctx_;
  DType dtype_;
  bool tp_;
  std::optional<mem::BlockPlan> plan_;
};

}  // namespace

AttentionCore::AttentionCore(ParamRegistry& params, const std::string& prefix,
                             AttentionConfig cfg)
    : cfg_(cfg), params_(&params) {
  LS2_CHECK_EQ(cfg.hidden % cfg.heads, 0);
  LS2_CHECK(cfg.tp.size <= 1 || cfg.heads % cfg.tp.size == 0)
      << cfg.heads << " heads not divisible by tp " << cfg.tp.size;
  // Row-parallel: the merged context is head-major, so a rank's head slice
  // is a contiguous column block of W_out.
  w_out_ = TpParam::declare(params, cfg.tp, prefix + ".out_proj.weight",
                            Shape{cfg.hidden, cfg.hidden}, Init::kXavier, /*dim=*/1);
  b_out_ = params.declare(prefix + ".out_proj.bias", Shape{cfg.hidden}, Init::kZero);
}

Tensor AttentionCore::forward(LayerContext& ctx, const Tensor& q, const Tensor& k,
                              const Tensor& v, const Tensor& residual,
                              const Tensor* key_lens) {
  const int64_t B = q.shape()[0], N = q.shape()[1], Lq = q.shape()[2], D = q.shape()[3];
  const int64_t Lk = k.shape()[2];
  const int64_t H = N * D;
  const DType dt = q.dtype();
  const float scale = 1.0f / std::sqrt(static_cast<float>(D));
  const Policy& pol = ctx.policy;
  const int64_t tp = ctx.tp_size();

  // Scores and masked softmax. Under TP the per-head work is sharded: a
  // rank runs the same batched kernels over N/tp heads.
  const gemm::GemmCharge score_charge{Lq, Lk, D, B * N / tp};
  Tensor scores = ctx.alloc_shard({B, N, Lq, Lk}, dt);
  gemm::device_gemm_batched(ctx.device(), false, true, Lq, Lk, D, scale, q, Lq * D, k,
                            Lk * D, 0.0f, scores, Lq * Lk, B * N, "attn.scores",
                            &score_charge);
  Tensor probs = ctx.alloc_shard({B, N, Lq, Lk}, dt);
  Tensor probs_d = ctx.alloc_shard({B, N, Lq, Lk}, dt);
  Tensor attn_mask = ctx.alloc_shard({B, N, Lq, Lk}, DType::kU8);
  Tensor ctx_h = ctx.alloc_shard({B, N, Lq, D}, dt);
  Tensor merged = ctx.alloc_shard({B, Lq, H}, dt);
  {
    TpChargeScale tp_scale(ctx);
    kern::attn_softmax_fw(ctx.kern, pol.softmax, scores, probs, cfg_.causal, key_lens);

    // Attention dropout.
    kern::dropout_fw(ctx.kern, pol.elementwise, probs, probs_d, attn_mask,
                     cfg_.attn_dropout, ctx.kern.next_dropout_stream());
  }

  // Context and head merge.
  const gemm::GemmCharge context_charge{Lq, D, Lk, B * N / tp};
  gemm::device_gemm_batched(ctx.device(), false, false, Lq, D, Lk, 1.0f, probs_d, Lq * Lk,
                            v, Lk * D, 0.0f, ctx_h, Lq * D, B * N, "attn.context",
                            &context_charge);
  {
    TpChargeScale tp_scale(ctx);
    kern::merge_heads_fw(ctx.kern, pol.transform, ctx_h, merged);
  }

  // Output projection (row-parallel by heads: every rank computes a
  // full-size partial, summed by the TP ring) + bias/dropout/residual.
  Tensor out = ctx.alloc({B, Lq, H}, dt);
  tp_linear_fw(ctx, merged, w_out_.value(ctx), out, "attn.out_proj", TpSplit::kRow);
  if (tp > 1) {
    ctx.tp_group->all_reduce(ctx.device(), static_cast<int64_t>(out.bytes()),
                             "tp.attn.allreduce");
  }
  Tensor y = ctx.alloc({B, Lq, H}, dt);
  Tensor out_mask = ctx.alloc({B, Lq, H}, DType::kU8);
  if (pol.fused_elementwise) {
    kern::fused::bias_dropout_residual_fw(ctx.kern, out, params_->value(b_out_), residual, y,
                                          out_mask, cfg_.out_dropout,
                                          ctx.kern.next_dropout_stream());
  } else {
    kern::baseline::add_bias(ctx.kern, out, params_->value(b_out_), out);
    Tensor t = ctx.alloc({B, Lq, H}, dt);
    kern::dropout_fw(ctx.kern, pol.elementwise, out, t, out_mask, cfg_.out_dropout,
                     ctx.kern.next_dropout_stream());
    kern::baseline::add(ctx.kern, t, residual, y);
  }

  saved_ = Saved{q, k, v, probs, probs_d, attn_mask, merged, out_mask, B, Lq, Lk};
  return y;
}

Tensor AttentionCore::infer_forward(LayerContext& ctx, const Tensor& q, const Tensor& k,
                                    const Tensor& v, const Tensor& residual,
                                    const Tensor* key_lens, bool causal) {
  LS2_CHECK(ctx.tp_size() == 1) << "serving paths run unsharded (TP is a training feature)";
  const int64_t B = q.shape()[0], N = q.shape()[1], Lq = q.shape()[2], D = q.shape()[3];
  const int64_t Lk = k.shape()[2];
  const int64_t H = N * D;
  const DType dt = q.dtype();
  const float scale = 1.0f / std::sqrt(static_cast<float>(D));
  const Policy& pol = ctx.policy;

  // Scores and masked softmax. With cross blocks Lk = cross_len and
  // key_lens bounds the valid prefix; masked tail rows contribute exact
  // zeros.
  Tensor scores = ctx.alloc({B, N, Lq, Lk}, dt);
  gemm::device_gemm_batched(ctx.device(), false, true, Lq, Lk, D, scale, q, Lq * D, k,
                            Lk * D, 0.0f, scores, Lq * Lk, B * N, "attn.scores");
  Tensor probs = ctx.alloc({B, N, Lq, Lk}, dt);
  kern::attn_softmax_fw(ctx.kern, pol.softmax, scores, probs, causal, key_lens);

  // Context and head merge (no attention dropout at inference).
  Tensor ctx_h = ctx.alloc({B, N, Lq, D}, dt);
  gemm::device_gemm_batched(ctx.device(), false, false, Lq, D, Lk, 1.0f, probs, Lq * Lk, v,
                            Lk * D, 0.0f, ctx_h, Lq * D, B * N, "attn.context");
  Tensor merged = ctx.alloc({B, Lq, H}, dt);
  kern::merge_heads_fw(ctx.kern, pol.transform, ctx_h, merged);
  return infer_output(ctx, merged, residual);
}

Tensor AttentionCore::infer_output(LayerContext& ctx, const Tensor& merged,
                                   const Tensor& residual) {
  LS2_CHECK(ctx.tp_size() == 1) << "serving paths run unsharded (TP is a training feature)";
  const int64_t B = merged.shape()[0], Lq = merged.shape()[1], H = merged.shape()[2];
  const DType dt = merged.dtype();
  const Policy& pol = ctx.policy;

  // Output projection + bias/residual. The dropout kernels run at p = 0
  // (identity, all-ones masks) so the serving path stays bitwise-identical
  // to the training forward under zero dropout — the parity contract
  // tests/infer_test.cc checks.
  Tensor out = ctx.alloc({B, Lq, H}, dt);
  linear_fw(ctx, merged, w_out_.value(ctx), out, "attn.out_proj");
  Tensor y = ctx.alloc({B, Lq, H}, dt);
  Tensor out_mask = ctx.alloc({B, Lq, H}, DType::kU8);
  if (pol.fused_elementwise) {
    kern::fused::bias_dropout_residual_fw(ctx.kern, out, params_->value(b_out_), residual, y,
                                          out_mask, 0.0f, ctx.kern.next_dropout_stream());
  } else {
    kern::baseline::add_bias(ctx.kern, out, params_->value(b_out_), out);
    kern::baseline::add(ctx.kern, out, residual, y);
  }
  return y;
}

AttentionCore::CoreGrads AttentionCore::backward(LayerContext& ctx, const Tensor& dy) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.B, Lq = s.Lq, Lk = s.Lk;
  const int64_t N = cfg_.heads, D = cfg_.head_dim(), H = cfg_.hidden;
  const DType dt = dy.dtype();
  const float scale = 1.0f / std::sqrt(static_cast<float>(D));
  const Policy& pol = ctx.policy;
  const int64_t tp = ctx.tp_size();
  const gemm::GemmCharge bw_charge_sk{Lq, Lk, D, B * N / tp};   // dS shape
  const gemm::GemmCharge bw_charge_kd{Lk, D, Lq, B * N / tp};   // dV/dK shape
  const gemm::GemmCharge bw_charge_qd{Lq, D, Lk, B * N / tp};   // dQ shape

  BackwardTemps temps(ctx, B, N, Lq, Lk, H, dt, /*self_attn=*/true);

  // Step 1: through output dropout (+ bias grad).
  Tensor d_out = temps.get("d_out", Shape{B, Lq, H});
  if (pol.fused_elementwise) {
    kern::fused::bias_dropout_residual_bw(ctx.kern, dy, s.out_mask, d_out, cfg_.out_dropout);
  } else {
    kern::dropout_bw(ctx.kern, pol.elementwise, dy, s.out_mask, d_out, cfg_.out_dropout);
  }
  kern::bias_grad(ctx.kern, d_out, params_->grad(b_out_));

  // Step 2: output projection (row-parallel: fully local backward — a
  // rank's dmerged is its own head slice, its dW its column shard).
  Tensor dmerged = temps.get("dmerged", Shape{B, Lq, H});
  {
    auto dw_out = w_out_.grad(ctx);
    tp_linear_bw(ctx, d_out, s.merged, w_out_.value(ctx), dmerged, dw_out.tensor(),
                 "attn.out_proj", TpSplit::kRow);
  }

  // Step 3: un-merge heads.
  Tensor dctx = temps.get("dctx", Shape{B, N, Lq, D});
  {
    TpChargeScale tp_scale(ctx);
    kern::merge_heads_bw(ctx.kern, pol.transform, dmerged, dctx);
  }

  // Steps 4-5: dS = dctx @ V^T ; dV = P_d^T @ dctx.
  Tensor dS = temps.get("dS", Shape{B, N, Lq, Lk});
  gemm::device_gemm_batched(ctx.device(), false, true, Lq, Lk, D, 1.0f, dctx, Lq * D, s.v,
                            Lk * D, 0.0f, dS, Lq * Lk, B * N, "attn.bw_dS", &bw_charge_sk);
  Tensor dv = temps.get("dv", Shape{B, N, Lk, D});
  gemm::device_gemm_batched(ctx.device(), true, false, Lk, D, Lq, 1.0f, s.probs_d, Lq * Lk,
                            dctx, Lq * D, 0.0f, dv, Lk * D, B * N, "attn.bw_dV",
                            &bw_charge_kd);

  // Steps 5-6: dropout and softmax backward, in place in the dS block.
  {
    TpChargeScale tp_scale(ctx);
    kern::dropout_bw(ctx.kern, pol.elementwise, dS, s.attn_mask, dS, cfg_.attn_dropout);
    kern::attn_softmax_bw(ctx.kern, pol.softmax, dS, s.probs, dS);
  }

  // Step 7: dQ = dS @ K * scale ; dK = dS^T @ Q * scale.
  Tensor dq = temps.get("dq", Shape{B, N, Lq, D});
  gemm::device_gemm_batched(ctx.device(), false, false, Lq, D, Lk, scale, dS, Lq * Lk, s.k,
                            Lk * D, 0.0f, dq, Lq * D, B * N, "attn.bw_dQ", &bw_charge_qd);
  Tensor dk = temps.get("dk", Shape{B, N, Lk, D});
  gemm::device_gemm_batched(ctx.device(), true, false, Lk, D, Lq, scale, dS, Lq * Lk, s.q,
                            Lq * D, 0.0f, dk, Lk * D, B * N, "attn.bw_dK", &bw_charge_kd);

  return CoreGrads{dq, dk, dv};
}

void AttentionCore::release() { saved_.reset(); }

// ---------------------------------------------------------------------------

SelfAttention::SelfAttention(ParamRegistry& params, const std::string& prefix,
                             AttentionConfig cfg)
    : cfg_(cfg),
      params_(&params),
      ln_gamma_(params.declare(prefix + ".ln.gamma", Shape{cfg.hidden}, Init::kOne)),
      ln_beta_(params.declare(prefix + ".ln.beta", Shape{cfg.hidden}, Init::kZero)),
      // Column-parallel by heads: the packed [q; k; v] rows are 3 groups,
      // each sharded by head slice (ShardSpec::groups).
      w_qkv_(TpParam::declare(params, cfg.tp, prefix + ".qkv_proj.weight",
                              Shape{3 * cfg.hidden, cfg.hidden}, Init::kXavier,
                              /*dim=*/0, /*groups=*/3)),
      b_qkv_(TpParam::declare(params, cfg.tp, prefix + ".qkv_proj.bias",
                              Shape{3 * cfg.hidden}, Init::kZero, /*dim=*/0,
                              /*groups=*/3)),
      core_(params, prefix, cfg) {}

Tensor SelfAttention::forward(LayerContext& ctx, const Tensor& x, const Tensor* key_lens) {
  LS2_CHECK_EQ(x.shape().rank(), 3);
  const int64_t B = x.shape()[0], L = x.shape()[1], H = x.shape()[2];
  LS2_CHECK_EQ(H, cfg_.hidden);
  const int64_t N = cfg_.heads, D = cfg_.head_dim();
  const DType dt = x.dtype();

  Tensor ln = ctx.alloc({B, L, H}, dt);
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, x, params_->value(ln_gamma_),
                     params_->value(ln_beta_), ln, mean, rstd);

  Tensor qkv = ctx.alloc_shard({B, L, 3 * H}, dt);
  tp_linear_fw(ctx, ln, w_qkv_.value(ctx), qkv, "attn.qkv_proj", TpSplit::kColumn);

  Tensor q = ctx.alloc_shard({B, N, L, D}, dt);
  Tensor k = ctx.alloc_shard({B, N, L, D}, dt);
  Tensor v = ctx.alloc_shard({B, N, L, D}, dt);
  {
    TpChargeScale tp_scale(ctx);
    kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, qkv, b_qkv_.value(ctx),
                                  {q, k, v});
  }

  Tensor y = core_.forward(ctx, q, k, v, /*residual=*/x, key_lens);
  saved_ = Saved{x, ln, mean, rstd};
  return y;
}

Tensor SelfAttention::backward(LayerContext& ctx, const Tensor& dy) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.x.shape()[0], L = s.x.shape()[1], H = s.x.shape()[2];
  const DType dt = dy.dtype();

  AttentionCore::CoreGrads g = core_.backward(ctx, dy);

  // Step 8: merge dq/dk/dv back to [B, L, 3H].
  Tensor dqkv = ctx.alloc_shard({B, L, 3 * H}, dt);
  {
    TpChargeScale tp_scale(ctx);
    kern::split_transpose_bw(ctx.kern, ctx.policy.transform, {g.dq, g.dk, g.dv}, dqkv);
    auto db_qkv = b_qkv_.grad(ctx);
    kern::bias_grad(ctx.kern, dqkv, db_qkv.tensor());
  }

  // Step 9: QKV projection (column-parallel: dln partials all-reduce over
  // the TP group, overlapped with the dW GEMM inside tp_linear_bw).
  Tensor dln = ctx.alloc({B, L, H}, dt);
  {
    auto dw_qkv = w_qkv_.grad(ctx);
    tp_linear_bw(ctx, dqkv, s.ln, w_qkv_.value(ctx), dln, dw_qkv.tensor(),
                 "attn.qkv_proj", TpSplit::kColumn);
  }

  // Step 10: LayerNorm backward fused with the residual gradient.
  Tensor dx = ctx.alloc({B, L, H}, dt);
  kern::layernorm_bw(ctx.kern, ctx.policy.layernorm, dln, s.x, params_->value(ln_gamma_),
                     s.mean, s.rstd, dx, params_->grad(ln_gamma_), params_->grad(ln_beta_),
                     /*residual_grad=*/&dy);
  release();
  return dx;
}

SelfAttention::Qkv SelfAttention::infer_qkv(LayerContext& ctx, const Tensor& x) {
  LS2_CHECK_EQ(x.shape().rank(), 3);
  const int64_t B = x.shape()[0], L = x.shape()[1], H = x.shape()[2];
  LS2_CHECK_EQ(H, cfg_.hidden);
  const int64_t N = cfg_.heads, D = cfg_.head_dim();
  const DType dt = x.dtype();

  Tensor ln = ctx.alloc({B, L, H}, dt);
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, x, params_->value(ln_gamma_),
                     params_->value(ln_beta_), ln, mean, rstd);

  Tensor qkv = ctx.alloc({B, L, 3 * H}, dt);
  linear_fw(ctx, ln, w_qkv_.value(ctx), qkv, "attn.qkv_proj");

  Qkv out{ctx.alloc({B, N, L, D}, dt), ctx.alloc({B, N, L, D}, dt),
          ctx.alloc({B, N, L, D}, dt)};
  kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, qkv, b_qkv_.value(ctx),
                                {out.q, out.k, out.v});
  return out;
}

Tensor SelfAttention::infer_paged_attn(LayerContext& ctx, const Tensor& x, const Tensor& q,
                                       const Tensor& k_pool, const Tensor& v_pool,
                                       const Tensor& block_table, const Tensor* lanes,
                                       const Tensor& q_begin, const Tensor& kv_lens) {
  Tensor merged = ctx.alloc(x.shape(), x.dtype());
  kern::paged_attn(ctx.kern, q, k_pool, v_pool, block_table, lanes, q_begin, kv_lens,
                   1.0f / std::sqrt(static_cast<float>(cfg_.head_dim())), merged);
  return core_.infer_output(ctx, merged, /*residual=*/x);
}

Tensor SelfAttention::prefill(LayerContext& ctx, const Tensor& x, const Tensor* key_lens) {
  const Qkv t = infer_qkv(ctx, x);
  return core_.infer_forward(ctx, t.q, t.k, t.v, /*residual=*/x, key_lens, cfg_.causal);
}

Tensor SelfAttention::prefill(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                              const Tensor& v_pool, const PagedRows& rows) {
  LS2_CHECK(cfg_.causal) << "cached prefill serves causal self-attention";
  const Qkv t = infer_qkv(ctx, x);
  // Store first: each query row then attends its own and every earlier row
  // — shared prefix pages included — in place.
  kern::kv_cache_store_paged(ctx.kern, ctx.policy.transform, t.k, t.v, k_pool, v_pool,
                             rows.block_table, rows.lanes, rows.q_begin, rows.write_begin,
                             rows.write_end);
  return infer_paged_attn(ctx, x, t.q, k_pool, v_pool, rows.block_table, &rows.lanes,
                          rows.q_begin, rows.kv_lens);
}

Tensor SelfAttention::decode_step(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                                  const Tensor& v_pool, const Tensor& block_table,
                                  const Tensor& positions, const Tensor& attend_lens) {
  LS2_CHECK_EQ(x.shape()[1], 1) << "decode_step takes one token per slot";
  const Qkv t = infer_qkv(ctx, x);
  // The new token's K/V must be resident in the pool before attention —
  // the single query then attends rows [0, attend_lens[s]).
  kern::kv_cache_append_paged(ctx.kern, t.k, t.v, k_pool, v_pool, block_table, positions);
  return infer_paged_attn(ctx, x, t.q, k_pool, v_pool, block_table, /*lanes=*/nullptr,
                          positions, attend_lens);
}

void SelfAttention::release() {
  saved_.reset();
  core_.release();
}

// ---------------------------------------------------------------------------

CrossAttention::CrossAttention(ParamRegistry& params, const std::string& prefix,
                               AttentionConfig cfg)
    : cfg_(cfg),
      params_(&params),
      ln_gamma_(params.declare(prefix + ".ln.gamma", Shape{cfg.hidden}, Init::kOne)),
      ln_beta_(params.declare(prefix + ".ln.beta", Shape{cfg.hidden}, Init::kZero)),
      w_q_(TpParam::declare(params, cfg.tp, prefix + ".q_proj.weight",
                            Shape{cfg.hidden, cfg.hidden}, Init::kXavier, /*dim=*/0)),
      b_q_(TpParam::declare(params, cfg.tp, prefix + ".q_proj.bias", Shape{cfg.hidden},
                            Init::kZero, /*dim=*/0)),
      core_(params, prefix, cfg) {
  LS2_CHECK(!cfg.causal) << "cross attention is never causal";
}

Tensor CrossAttention::forward(LayerContext& ctx, const Tensor& x, const Tensor& k,
                               const Tensor& v, const Tensor* src_lens) {
  const int64_t B = x.shape()[0], L = x.shape()[1], H = x.shape()[2];
  const int64_t N = cfg_.heads, D = cfg_.head_dim();
  const DType dt = x.dtype();

  Tensor ln = ctx.alloc({B, L, H}, dt);
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, x, params_->value(ln_gamma_),
                     params_->value(ln_beta_), ln, mean, rstd);

  // Column-parallel by heads; k/v arrive head-sharded the same way.
  Tensor q_gemm = ctx.alloc_shard({B, L, H}, dt);
  tp_linear_fw(ctx, ln, w_q_.value(ctx), q_gemm, "attn.q_proj", TpSplit::kColumn);
  Tensor q = ctx.alloc_shard({B, N, L, D}, dt);
  {
    TpChargeScale tp_scale(ctx);
    kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, q_gemm,
                                  b_q_.value(ctx), {q});
  }

  Tensor y = core_.forward(ctx, q, k, v, /*residual=*/x, src_lens);
  saved_ = Saved{x, ln, mean, rstd};
  return y;
}

Tensor CrossAttention::backward(LayerContext& ctx, const Tensor& dy, const Tensor& dk,
                                const Tensor& dv) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.x.shape()[0], L = s.x.shape()[1], H = s.x.shape()[2];
  const DType dt = dy.dtype();

  AttentionCore::CoreGrads g = core_.backward(ctx, dy);

  // Accumulate encoder-side grads (keys/values shared across queries) with
  // the policy-selected elementwise family, so the LightSeq2 policy pays the
  // vectorised kernel rather than a silent baseline launch. Head-sharded
  // under TP, like every per-head tensor.
  Tensor dq_gemm = ctx.alloc_shard({B, L, H}, dt);
  {
    TpChargeScale tp_scale(ctx);
    kern::add(ctx.kern, ctx.policy.elementwise, g.dk, dk, dk);
    kern::add(ctx.kern, ctx.policy.elementwise, g.dv, dv, dv);

    kern::split_transpose_bw(ctx.kern, ctx.policy.transform, {g.dq}, dq_gemm);
    auto db_q = b_q_.grad(ctx);
    kern::bias_grad(ctx.kern, dq_gemm, db_q.tensor());
  }

  // Column-parallel q_proj backward: the dln partial-sum all-reduce,
  // overlapped with the dW GEMM inside tp_linear_bw.
  Tensor dln = ctx.alloc({B, L, H}, dt);
  {
    auto dw_q = w_q_.grad(ctx);
    tp_linear_bw(ctx, dq_gemm, s.ln, w_q_.value(ctx), dln, dw_q.tensor(), "attn.q_proj",
                 TpSplit::kColumn);
  }

  Tensor dx = ctx.alloc({B, L, H}, dt);
  kern::layernorm_bw(ctx.kern, ctx.policy.layernorm, dln, s.x, params_->value(ln_gamma_),
                     s.mean, s.rstd, dx, params_->grad(ln_gamma_), params_->grad(ln_beta_),
                     /*residual_grad=*/&dy);
  release();
  return dx;
}

Tensor CrossAttention::infer_forward(LayerContext& ctx, const Tensor& x, const Tensor& k,
                                     const Tensor& v, const Tensor* src_lens) {
  const int64_t B = x.shape()[0], L = x.shape()[1], H = x.shape()[2];
  const int64_t N = cfg_.heads, D = cfg_.head_dim();
  const DType dt = x.dtype();

  Tensor ln = ctx.alloc({B, L, H}, dt);
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, x, params_->value(ln_gamma_),
                     params_->value(ln_beta_), ln, mean, rstd);

  Tensor q_gemm = ctx.alloc({B, L, H}, dt);
  linear_fw(ctx, ln, w_q_.value(ctx), q_gemm, "attn.q_proj");
  Tensor q = ctx.alloc({B, N, L, D}, dt);
  kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, q_gemm,
                                b_q_.value(ctx), {q});
  return core_.infer_forward(ctx, q, k, v, /*residual=*/x, src_lens, /*causal=*/false);
}

void CrossAttention::release() {
  saved_.reset();
  core_.release();
}

}  // namespace ls2::layers
