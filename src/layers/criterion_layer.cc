#include "layers/criterion_layer.h"

#include "kernels/criterion.h"
#include "layers/linear.h"

namespace ls2::layers {

namespace {

// Mean-per-token gradient, multiplied by the session's loss scale (the
// mixed-precision discipline: scale the loss up here, un-scale in the
// trainer's update — a power-of-two round trip that is exact in FP32).
// Under microbatched execution (pipeline parallelism) the denominator is
// the GLOBAL valid-token count — a microbatch's gradient contribution
// must be scaled exactly as its rows were in the single-batch run.
float grad_scale(const LayerContext& ctx, int64_t valid_tokens) {
  const int64_t denom = ctx.pp_denominator > 0 ? ctx.pp_denominator : valid_tokens;
  return (denom > 0 ? 1.0f / static_cast<float>(denom) : 0.0f) * ctx.loss_scale;
}

}  // namespace

bool criterion_grad_in_forward(const LayerContext& ctx) {
  return ctx.training() && ctx.policy.criterion == kern::Impl::kLS2;
}

CriterionLayer::CriterionLayer(ParamRegistry& params, const std::string& prefix,
                               CriterionConfig cfg, TpParam tied_table)
    : cfg_(cfg), params_(&params) {
  if (tied_table.valid()) {
    proj_ = tied_table;
    LS2_CHECK(proj_.full_shape() == (Shape{cfg.vocab, cfg.hidden}))
        << "tied table shape mismatch";
  } else {
    LS2_CHECK(cfg.tp.size <= 1 || cfg.vocab % cfg.tp.size == 0)
        << "vocab " << cfg.vocab << " not divisible by tp " << cfg.tp.size
        << " — pad the vocab (Megatron discipline)";
    proj_ = TpParam::declare(params, cfg.tp, prefix + ".output_projection",
                             Shape{cfg.vocab, cfg.hidden}, Init::kNormal, /*dim=*/0);
  }
}

CriterionResult CriterionLayer::forward(LayerContext& ctx, const Tensor& x,
                                        const Tensor& targets) {
  const int64_t B = x.shape()[0], L = x.shape()[1];
  const int64_t rows = B * L;
  LS2_CHECK_EQ(targets.numel(), rows);
  const bool execute = ctx.device().mode() == simgpu::ExecMode::kExecute;

  // The gradient's scale needs the valid-token count before the launch.
  int64_t valid = rows;  // timing-only mode: shape bookkeeping
  if (execute) {
    valid = 0;
    for (float t : targets.to_vector()) {
      if (static_cast<int32_t>(t) != cfg_.pad_id) ++valid;
    }
  }

  Tensor z = logits(ctx, x);
  Tensor loss = ctx.alloc({rows}, DType::kF32);
  Tensor stats = ctx.alloc({rows, 2}, DType::kF32);
  const bool grad_in_logits = criterion_grad_in_forward(ctx);
  kern::ls_cross_entropy_fw(ctx.kern, ctx.policy.criterion, z, targets, loss, stats,
                            cfg_.label_smoothing, cfg_.pad_id, grad_in_logits ? z : Tensor{},
                            grad_scale(ctx, valid));

  // Under microbatched execution the carry continues the double accumulator
  // across slices, so the final microbatch's total is bitwise the
  // full-batch sum (kernels/criterion.h).
  Tensor total = ctx.alloc({1}, DType::kF32);
  kern::reduce_sum(ctx.kern, loss, total, ctx.pp_loss_carry);

  CriterionResult result;
  if (execute) result.loss_sum = total.item();
  result.tokens = valid;
  saved_ = Saved{x, targets, z, stats, valid, grad_in_logits};
  return result;
}

Tensor CriterionLayer::backward(LayerContext& ctx) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.x.shape()[0], L = s.x.shape()[1], H = s.x.shape()[2];
  const DType dt = s.x.dtype();

  // LightSeq2's forward launch left the gradient in the logits buffer (a
  // LightSeq2 forward that wrote none makes ls_cross_entropy_bw throw).
  Tensor dlogits = s.logits;
  if (!s.logits_hold_grad) {
    dlogits = ctx.alloc({B * L, cfg_.vocab}, dt);
    kern::ls_cross_entropy_bw(ctx.kern, ctx.policy.criterion, s.logits, s.targets, s.stats,
                              dlogits, cfg_.label_smoothing, grad_scale(ctx, s.valid_tokens),
                              cfg_.pad_id);
  }

  // Column-parallel backward: dx partials all-reduce over the TP group
  // (the criterion's backward collective), overlapped with the projection
  // gradient GEMM inside tp_linear_bw. With tied embeddings that GEMM
  // accumulates into the rank's vocab shard of the shared table.
  Tensor dx = ctx.alloc({B, L, H}, dt);
  {
    auto dproj = proj_.grad(ctx);
    tp_linear_bw(ctx, dlogits, s.x, proj_.value(ctx), dx, dproj.tensor(),
                 "criterion.proj", TpSplit::kColumn);
  }
  release();
  return dx;
}

Tensor CriterionLayer::logits(LayerContext& ctx, const Tensor& x) {
  // Vocab-sharded projection: each rank computes a [rows, vocab/tp] column
  // slice (exact), then a TP all-gather concatenates the full logits every
  // rank needs for the softmax/CE reduction — also exact, so parity holds.
  Tensor z = ctx.alloc({x.shape()[0] * x.shape()[1], cfg_.vocab}, x.dtype());
  tp_linear_fw(ctx, x, proj_.value(ctx), z, "criterion.proj", TpSplit::kColumn);
  if (ctx.tp_size() > 1) {
    ctx.tp_group->all_gather(ctx.device(), static_cast<int64_t>(z.bytes()),
                             "tp.criterion.gather");
  }
  return z;
}

void CriterionLayer::release() { saved_.reset(); }

}  // namespace ls2::layers
