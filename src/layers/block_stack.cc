#include "layers/block_stack.h"

#include "kernels/layernorm.h"

namespace ls2::layers {

void BlockStackBase::place(PpPlan& plan, int first, int stages) {
  LS2_CHECK(stages >= 1 && stages <= size())
      << stages << " stages need at least one block each (" << size() << " blocks)";
  const auto planned = static_cast<int>(plan.stage_params.size());
  LS2_CHECK(first >= 0 && first + stages <= planned)
      << "stages [" << first << ", " << first + stages << ") of a " << planned << "-stage plan";
  for (int64_t i = 0; i < size(); ++i) {
    // Stage s owns blocks [ceil(s*n/stages), ceil((s+1)*n/stages)).
    const int s = first + static_cast<int>(i * stages / size());
    stages_[static_cast<size_t>(i)] = s;
    plan.stage_params[static_cast<size_t>(s)].push_back(ranges_[static_cast<size_t>(i)]);
  }
}

void BlockStackBase::cross(LayerContext& ctx, int64_t b, bool forward, const Tensor& h,
                           const StackCarry& carried) const {
  if (stage(b) == stage(b - 1)) return;
  ctx.pp_enter(forward ? stage(b) : stage(b - 1), forward,
               static_cast<int64_t>(h.bytes()) + (carried ? carried(b) : 0));
}

LayerNorm::LayerNorm(ParamRegistry& params, const std::string& prefix, int64_t hidden)
    : params_(params) {
  const int mark = params.size();
  gamma_ = params.declare(prefix + ".gamma", Shape{hidden}, Init::kOne);
  beta_ = params.declare(prefix + ".beta", Shape{hidden}, Init::kZero);
  range_ = params.range_since(mark);
}

Tensor LayerNorm::forward(LayerContext& ctx, const Tensor& x) {
  const int64_t rows = x.shape().flatten_2d()[0];
  Tensor y = ctx.alloc(x.shape(), x.dtype());
  Tensor mean = ctx.alloc({rows}, DType::kF32);
  Tensor rstd = ctx.alloc({rows}, DType::kF32);
  kern::layernorm_fw(ctx.kern, ctx.policy.layernorm, x, params_.value(gamma_),
                     params_.value(beta_), y, mean, rstd);
  if (ctx.training()) saved_ = Saved{x, y, mean, rstd};
  return y;
}

Tensor LayerNorm::backward(LayerContext& ctx, const Tensor& dy) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  const Saved& s = *saved_;
  Tensor dx = ctx.alloc(s.x.shape(), s.x.dtype());
  kern::layernorm_bw(ctx.kern, ctx.policy.layernorm, dy, s.x, params_.value(gamma_), s.mean,
                     s.rstd, dx, params_.grad(gamma_), params_.grad(beta_),
                     /*residual_grad=*/nullptr, ctx.policy.fold_bias_grad);
  params_.notify_grad_ready(range_);
  return dx;
}

}  // namespace ls2::layers
