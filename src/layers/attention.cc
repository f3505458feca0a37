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

/// Temporary provider for the attention backward pass. Under LightSeq2 a
/// Fig. 8 shared-block plan over what the fused backward needs: the
/// output-dropout gradient, then the head-merged one, then the
/// projection-gradient rows [B, Lq, C] attn_bw writes, which take the
/// output-dropout gradient's block. The baselines allocate each temporary
/// individually from the dynamic allocator.
class BackwardTemps {
 public:
  BackwardTemps(LayerContext& ctx, int64_t B, int64_t Lq, int64_t H, int64_t C, DType dtype)
      : ctx_(ctx), dtype_(dtype), tp_(ctx.tp_size() > 1) {
    // Under TP the plan's fixed lifetimes no longer describe the sharded
    // temporaries, so each one goes through alloc_shard instead (d_out —
    // the full-width dropout gradient — excepted); accounting is slightly
    // conservative (no block sharing), never optimistic.
    if (attention_reads_rows(ctx.policy) && !tp_) {
      const size_t e = dtype_size(dtype);
      const size_t blh_q = static_cast<size_t>(B * Lq * H) * e;
      // Lifetimes are AttentionCore::backward's steps; the rows outlive
      // them, in the caller's projection backward.
      plan_.emplace(std::vector<mem::PlanTensor>{
          {"d_out", blh_q, 1, 2},
          {"dmerged", blh_q, 2, 3},
          {"rows", static_cast<size_t>(B * Lq * C) * e, 3, 4}});
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

bool attention_reads_rows(const Policy& policy) { return policy.system == System::kLightSeq2; }

bool gemm_epilogues(const Policy& policy) {
  return policy.system == System::kLightSeq2 && policy.fused_elementwise;
}

SublayerOut residual_projection(LayerContext& ctx, const Tensor& x, const Tensor& w,
                                const Tensor& b, const Tensor& residual, float p,
                                bool with_mask, const std::string& tag,
                                const std::string& allreduce_tag) {
  const Shape& shape = residual.shape();
  const DType dt = x.dtype();
  const Policy& pol = ctx.policy;
  const bool epilogue = gemm_epilogues(pol) && ctx.tp_size() == 1;
  Tensor out;
  if (!epilogue) {
    out = ctx.alloc(shape, dt);
    tp_linear_fw(ctx, x, w, out, tag, TpSplit::kRow);
    if (ctx.tp_size() > 1) {
      ctx.tp_group->all_reduce(ctx.device(), static_cast<int64_t>(out.bytes()), allreduce_tag);
    }
  }
  SublayerOut o{ctx.alloc(shape, dt), with_mask ? ctx.alloc(shape, DType::kU8) : Tensor()};
  if (epilogue) {
    const gemm::GemmLaunch proj = tp_linear_fw_gemm(ctx, x, w, o.y, tag, TpSplit::kRow);
    kern::fused::bias_dropout_residual_fw(ctx.kern, o.y, b, residual, o.y, o.mask,
                                          ctx.dropout(p), ctx.kern.next_dropout_stream(), &proj);
  } else if (pol.fused_elementwise) {
    kern::fused::bias_dropout_residual_fw(ctx.kern, out, b, residual, o.y, o.mask,
                                          ctx.dropout(p), ctx.kern.next_dropout_stream());
  } else {
    kern::baseline::add_bias(ctx.kern, out, b, out);
    Tensor t = out;
    if (ctx.training()) {
      t = ctx.alloc(shape, dt);
      kern::dropout_fw(ctx.kern, pol.elementwise, out, t, o.mask, p,
                       ctx.kern.next_dropout_stream());
    }
    kern::baseline::add(ctx.kern, t, residual, o.y);
  }
  return o;
}

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

Tensor AttentionCore::forward(LayerContext& ctx, const kern::AttnOperand& q,
                              const kern::AttnOperand& k, const kern::AttnOperand& v,
                              const Tensor& residual, const Tensor* key_lens) {
  const int64_t B = q.B, N = q.N, Lq = q.L, D = q.D;
  const int64_t Lk = k.L;
  const int64_t H = N * D;
  const DType dt = q.dtype();
  const Policy& pol = ctx.policy;
  const int64_t tp = ctx.tp_size();
  const bool training = ctx.training();

  // Training draws the attention dropout's stream here under every policy;
  // serving has no attention dropout and draws none.
  Saved s;
  kern::AttnInputs& in = s.attn;
  in = {q, k, v, cfg_.causal, key_lens ? *key_lens : Tensor(),
        1.0f / std::sqrt(static_cast<float>(D))};
  in.shards = tp;
  if (training) {
    in.dropout = cfg_.attn_dropout;
    in.stream = ctx.kern.next_dropout_stream();
    in.microbatch = ctx.kern.microbatch;
  }

  Tensor scores, ctx_h;  // the baselines' chain holds both to the end of forward
  if (attention_reads_rows(pol)) {
    // One launch from Q/K/V to the head-merged context. Under TP a rank
    // runs it over its N/tp heads.
    s.merged = ctx.alloc_shard({B, Lq, H}, dt);
    if (training) s.stats = ctx.alloc_shard({B, N, Lq}, DType::kF32);
    TpChargeScale tp_scale(ctx);
    kern::attn_fw(ctx.kern, in, s.merged, s.stats);
  } else {
    // The chain runs over head-layout tensors. Scores and masked softmax.
    // Under TP the per-head work is sharded: a rank runs the same batched
    // kernels over N/tp heads. Serving skips the attention dropout and its
    // two buffers.
    LS2_CHECK(!q.is_rows && !k.is_rows && !v.is_rows && !q.bias.defined() &&
              !k.bias.defined() && !v.bias.defined())
        << "the unfused chain takes head-layout q/k/v";
    const gemm::GemmCharge score_charge{Lq, Lk, D, B * N / tp};
    scores = ctx.alloc_shard({B, N, Lq, Lk}, dt);
    gemm::device_gemm_batched(ctx.device(), false, true, Lq, Lk, D, in.scale, q.t, Lq * D,
                              k.t, Lk * D, 0.0f, scores, Lq * Lk, B * N, "attn.scores",
                              &score_charge);
    s.probs = ctx.alloc_shard({B, N, Lq, Lk}, dt);
    s.probs_d = training ? ctx.alloc_shard({B, N, Lq, Lk}, dt) : s.probs;
    if (training) s.attn_mask = ctx.alloc_shard({B, N, Lq, Lk}, DType::kU8);
    ctx_h = ctx.alloc_shard({B, N, Lq, D}, dt);
    s.merged = ctx.alloc_shard({B, Lq, H}, dt);
    {
      TpChargeScale tp_scale(ctx);
      kern::attn_softmax_fw(ctx.kern, pol.softmax, scores, s.probs, cfg_.causal, key_lens);
      if (training) {
        kern::dropout_fw(ctx.kern, pol.elementwise, s.probs, s.probs_d, s.attn_mask,
                         in.dropout, in.stream);
      }
    }

    // Context and head merge.
    const gemm::GemmCharge context_charge{Lq, D, Lk, B * N / tp};
    gemm::device_gemm_batched(ctx.device(), false, false, Lq, D, Lk, 1.0f, s.probs_d,
                              Lq * Lk, v.t, Lk * D, 0.0f, ctx_h, Lq * D, B * N,
                              "attn.context", &context_charge);
    TpChargeScale tp_scale(ctx);
    kern::merge_heads_fw(ctx.kern, pol.transform, ctx_h, s.merged);
  }

  Tensor y = output(ctx, s.merged, residual, &s.out_mask);
  if (training) saved_ = std::move(s);
  return y;
}

Tensor AttentionCore::output(LayerContext& ctx, const Tensor& merged, const Tensor& residual,
                             Tensor* out_mask) {
  // Row-parallel by heads: every rank computes a full-size partial.
  const SublayerOut o =
      residual_projection(ctx, merged, w_out_.value(ctx), params_->value(b_out_), residual,
                          cfg_.out_dropout, /*with_mask=*/true, "attn.out_proj",
                          "tp.attn.allreduce");
  if (out_mask) *out_mask = o.mask;
  return o.y;
}

AttentionCore::CoreGrads AttentionCore::backward(LayerContext& ctx, const Tensor& dy,
                                                 const Tensor& dbias,
                                                 const kern::AttnOperand& dk_acc,
                                                 const kern::AttnOperand& dv_acc) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  LS2_CHECK_EQ(dk_acc.defined(), dv_acc.defined()) << "K and V gradients accumulate together";
  Saved& s = *saved_;
  const kern::AttnInputs& in = s.attn;
  const int64_t B = in.q.B, Lq = in.q.L, Lk = in.k.L;
  const int64_t N = cfg_.heads, D = cfg_.head_dim(), H = cfg_.hidden;
  const DType dt = dy.dtype();
  const Policy& pol = ctx.policy;
  const int64_t tp = ctx.tp_size();
  const bool fused = attention_reads_rows(pol);
  const bool accumulate_kv = dk_acc.defined();
  const int64_t C = accumulate_kv ? H : 3 * H;  // the rows: dQ, or dQ, dK and dV

  BackwardTemps temps(ctx, B, Lq, H, C, dt);

  // Step 1: through output dropout (+ bias grad, in the same launch when
  // the policy folds it).
  Tensor d_out = temps.get("d_out", Shape{B, Lq, H});
  const Tensor db_out = params_->grad(b_out_);
  const bool fold = pol.fold_bias_grad && pol.fused_elementwise;
  if (pol.fused_elementwise) {
    kern::fused::bias_dropout_residual_bw(ctx.kern, dy, s.out_mask, d_out, cfg_.out_dropout,
                                          fold ? db_out : Tensor());
  } else {
    kern::dropout_bw(ctx.kern, pol.elementwise, dy, s.out_mask, d_out, cfg_.out_dropout);
  }
  if (!fold) kern::bias_grad(ctx.kern, d_out, db_out);

  // Step 2: output projection (row-parallel: fully local backward — a
  // rank's dmerged is its own head slice, its dW its column shard).
  Tensor dmerged = temps.get("dmerged", Shape{B, Lq, H});
  {
    auto dw_out = w_out_.grad(ctx);
    tp_linear_bw(ctx, d_out, s.merged, w_out_.value(ctx), dmerged, dw_out.tensor(),
                 "attn.out_proj", TpSplit::kRow);
  }

  // Step 3 under LightSeq2: one launch from dmerged into the gradient
  // rows (and the caller's K/V accumulators), folding the bias gradients.
  if (fused) {
    CoreGrads g;
    g.rows = temps.get("rows", Shape{B, Lq, C});
    auto block = [&](int64_t i) {  // dQ, dK, dV: the rows' N·D column blocks
      return kern::AttnOperand::rows(
          g.rows, i * H, N, D, {}, dbias.defined() ? dbias.slice(i * H, (i + 1) * H) : Tensor());
    };
    TpChargeScale tp_scale(ctx);
    kern::attn_bw(ctx.kern, in, dmerged, s.merged, s.stats, block(0),
                  accumulate_kv ? dk_acc : block(1), accumulate_kv ? dv_acc : block(2),
                  accumulate_kv);
    return g;
  }
  LS2_CHECK(!dbias.defined() && !dk_acc.is_rows && !dv_acc.is_rows &&
            !dk_acc.dbias.defined() && !dv_acc.dbias.defined())
      << "the unfused chain returns head-layout gradients and accumulates into head layout";

  const gemm::GemmCharge bw_charge_sk{Lq, Lk, D, B * N / tp};   // dS shape
  const gemm::GemmCharge bw_charge_kd{Lk, D, Lq, B * N / tp};   // dV/dK shape
  const gemm::GemmCharge bw_charge_qd{Lq, D, Lk, B * N / tp};   // dQ shape

  // Step 3: un-merge heads.
  Tensor dctx = temps.get("dctx", Shape{B, N, Lq, D});
  {
    TpChargeScale tp_scale(ctx);
    kern::merge_heads_bw(ctx.kern, pol.transform, dmerged, dctx);
  }

  // Steps 4-5: dS = dctx @ V^T ; dV = P_d^T @ dctx.
  Tensor dS = temps.get("dS", Shape{B, N, Lq, Lk});
  gemm::device_gemm_batched(ctx.device(), false, true, Lq, Lk, D, 1.0f, dctx, Lq * D,
                            in.v.t, Lk * D, 0.0f, dS, Lq * Lk, B * N, "attn.bw_dS",
                            &bw_charge_sk);
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
  gemm::device_gemm_batched(ctx.device(), false, false, Lq, D, Lk, in.scale, dS, Lq * Lk,
                            in.k.t, Lk * D, 0.0f, dq, Lq * D, B * N, "attn.bw_dQ",
                            &bw_charge_qd);
  Tensor dk = temps.get("dk", Shape{B, N, Lk, D});
  gemm::device_gemm_batched(ctx.device(), true, false, Lk, D, Lq, in.scale, dS, Lq * Lk,
                            in.q.t, Lq * D, 0.0f, dk, Lk * D, B * N, "attn.bw_dK",
                            &bw_charge_kd);
  if (!accumulate_kv) return CoreGrads{{}, dq, dk, dv};

  // The encoder-side gradients accumulate in two more launches.
  // Head-sharded under TP, like every per-head tensor.
  TpChargeScale tp_scale(ctx);
  kern::baseline::add(ctx.kern, dk, dk_acc.t, dk_acc.t);
  kern::baseline::add(ctx.kern, dv, dv_acc.t, dv_acc.t);
  return CoreGrads{{}, dq, dk_acc.t, dv_acc.t};
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

SelfAttention::Qkv SelfAttention::project_qkv(LayerContext& ctx, const Tensor& x,
                                              bool split) {
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

  Qkv t;
  if (ctx.training()) t = {{}, {}, {}, ln, mean, rstd, {}};
  if (!split) {
    const Tensor b = b_qkv_.value(ctx);
    t.q = kern::AttnOperand::rows(qkv, 0, N, D, b.slice(0, H));
    t.k = kern::AttnOperand::rows(qkv, H, N, D, b.slice(H, 2 * H));
    t.v = kern::AttnOperand::rows(qkv, 2 * H, N, D, b.slice(2 * H, 3 * H));
    return t;
  }
  Tensor q = ctx.alloc_shard({B, N, L, D}, dt);
  Tensor k = ctx.alloc_shard({B, N, L, D}, dt);
  Tensor v = ctx.alloc_shard({B, N, L, D}, dt);
  {
    TpChargeScale tp_scale(ctx);
    kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, qkv, b_qkv_.value(ctx),
                                  {q, k, v});
  }
  t.q = q;
  t.k = k;
  t.v = v;
  if (ctx.training()) t.qkv = qkv;
  return t;
}

Tensor SelfAttention::forward(LayerContext& ctx, const Tensor& x, const Tensor* key_lens,
                              const PagedKv* paged) {
  // LightSeq2's attention reads the projection rows; the chain and the
  // paged pools take head layout.
  const Qkv t =
      project_qkv(ctx, x, /*split=*/paged != nullptr || !attention_reads_rows(ctx.policy));
  if (paged == nullptr) {
    Tensor y = core_.forward(ctx, t.q, t.k, t.v, /*residual=*/x, key_lens);
    if (ctx.training()) saved_ = Saved{x, t.ln, t.mean, t.rstd};
    return y;
  }
  LS2_CHECK(cfg_.causal && !ctx.training() && key_lens == nullptr)
      << "the paged K/V serve causal self-attention, with the rows' kv_lens as key mask";
  const PagedRows& r = paged->rows;
  // Store first: each query row then attends its own and every earlier row
  // — shared prefix pages included — in place.
  kern::kv_cache_store_paged(ctx.kern, t.k.t, t.v.t, paged->k_pool, paged->v_pool,
                             r.block_table, r.lanes, r.q_begin, r.write_begin, r.write_end);
  Tensor merged = ctx.alloc(x.shape(), x.dtype());
  kern::paged_attn(ctx.kern, t.q.t, paged->k_pool, paged->v_pool, r.block_table,
                   r.lanes.defined() ? &r.lanes : nullptr, r.q_begin, r.kv_lens,
                   1.0f / std::sqrt(static_cast<float>(cfg_.head_dim())), merged);
  return core_.output(ctx, merged, /*residual=*/x);
}

Tensor SelfAttention::backward(LayerContext& ctx, const Tensor& dy) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.x.shape()[0], L = s.x.shape()[1], H = s.x.shape()[2];
  const DType dt = dy.dtype();

  // Steps 3-8: the core's backward into dqkv [B, L, 3H] (+ bias grad).
  // LightSeq2's attn_bw writes the core's gradient rows in place and folds
  // the bias gradient over them; the baselines merge head-layout gradients
  // back with split_transpose_bw and reduce it in a bias_grad.
  Tensor dqkv;
  AttentionCore::CoreGrads g;  // the baselines' head-layout temporaries, held to the end
  if (attention_reads_rows(ctx.policy)) {
    auto db_qkv = b_qkv_.grad(ctx);
    const bool fold = ctx.policy.fold_bias_grad;
    dqkv = core_.backward(ctx, dy, fold ? db_qkv.tensor() : Tensor()).rows;
    if (!fold) {
      TpChargeScale tp_scale(ctx);
      kern::bias_grad(ctx.kern, dqkv, db_qkv.tensor());
    }
  } else {
    g = core_.backward(ctx, dy);
    dqkv = ctx.alloc_shard({B, L, 3 * H}, dt);
    TpChargeScale tp_scale(ctx);
    auto db_qkv = b_qkv_.grad(ctx);
    kern::split_transpose_bw(ctx.kern, ctx.policy.transform, {g.dq, g.dk, g.dv}, dqkv);
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
                     /*residual_grad=*/&dy, ctx.policy.fold_bias_grad);
  release();
  return dx;
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

Tensor CrossAttention::forward(LayerContext& ctx, const Tensor& x, const kern::AttnOperand& k,
                               const kern::AttnOperand& v, const Tensor* src_lens) {
  const int64_t B = x.shape()[0], L = x.shape()[1], H = x.shape()[2];
  const int64_t N = cfg_.heads, D = cfg_.head_dim();
  const DType dt = x.dtype();

  Tensor ln = ctx.alloc({B, L, H}, dt);
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, x, params_->value(ln_gamma_),
                     params_->value(ln_beta_), ln, mean, rstd);

  // Column-parallel by heads; k/v arrive head-sharded the same way. Under
  // LightSeq2 the attention reads the projection rows, bias on load.
  Tensor q_gemm = ctx.alloc_shard({B, L, H}, dt);
  tp_linear_fw(ctx, ln, w_q_.value(ctx), q_gemm, "attn.q_proj", TpSplit::kColumn);
  kern::AttnOperand q;
  if (attention_reads_rows(ctx.policy)) {
    q = kern::AttnOperand::rows(q_gemm, 0, N, D, b_q_.value(ctx));
  } else {
    q = ctx.alloc_shard({B, N, L, D}, dt);
    TpChargeScale tp_scale(ctx);
    kern::bias_split_transpose_fw(ctx.kern, ctx.policy.transform, q_gemm, b_q_.value(ctx),
                                  {q.t});
  }

  Tensor y = core_.forward(ctx, q, k, v, /*residual=*/x, src_lens);
  if (ctx.training()) saved_ = Saved{x, ln, mean, rstd};
  return y;
}

Tensor CrossAttention::backward(LayerContext& ctx, const Tensor& dy,
                                const kern::AttnOperand& dk, const kern::AttnOperand& dv) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.x.shape()[0], L = s.x.shape()[1], H = s.x.shape()[2];
  const DType dt = dy.dtype();

  // Keys and values are shared across queries: their gradients accumulate
  // into the caller's dk/dv. Under LightSeq2 dQ lands in the core's
  // gradient rows and the q_proj bias gradient folds into the same launch;
  // the baselines merge a head-layout dQ back and reduce it in a bias_grad.
  Tensor dq_gemm;
  AttentionCore::CoreGrads g;  // the baselines' head-layout dQ, held to the end
  if (attention_reads_rows(ctx.policy)) {
    auto db_q = b_q_.grad(ctx);
    const bool fold = ctx.policy.fold_bias_grad;
    dq_gemm = core_.backward(ctx, dy, fold ? db_q.tensor() : Tensor(), dk, dv).rows;
    if (!fold) {
      TpChargeScale tp_scale(ctx);
      kern::bias_grad(ctx.kern, dq_gemm, db_q.tensor());
    }
  } else {
    g = core_.backward(ctx, dy, {}, dk, dv);
    dq_gemm = ctx.alloc_shard({B, L, H}, dt);
    TpChargeScale tp_scale(ctx);
    auto db_q = b_q_.grad(ctx);
    kern::split_transpose_bw(ctx.kern, ctx.policy.transform, {g.dq}, dq_gemm);
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
                     /*residual_grad=*/&dy, ctx.policy.fold_bias_grad);
  release();
  return dx;
}

void CrossAttention::release() {
  saved_.reset();
  core_.release();
}

}  // namespace ls2::layers
