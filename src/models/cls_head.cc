#include "models/cls_head.h"

#include <cstring>

#include "kernels/criterion.h"
#include "kernels/elementwise.h"
#include "layers/criterion_layer.h"
#include "layers/linear.h"

namespace ls2::models {

namespace {

// The loss and gradient denominator: the GLOBAL batch size under
// microbatched execution, this slice's otherwise.
int64_t denominator(const layers::LayerContext& ctx, int64_t batch) {
  return ctx.pp_denominator > 0 ? ctx.pp_denominator : batch;
}

}  // namespace

ClsHead::ClsHead(layers::ParamRegistry& params, const std::string& model,
                 const std::string& name, int64_t hidden, int64_t classes)
    : params_(params), model_(model), tag_(model + "." + name), hidden_(hidden),
      classes_(classes) {
  const int mark = params.size();
  w_ = params.declare(tag_ + ".weight", Shape{classes, hidden}, layers::Init::kXavier);
  b_ = params.declare(tag_ + ".bias", Shape{classes}, layers::Init::kZero);
  range_ = params.range_since(mark);
}

ClsResult ClsHead::forward(layers::LayerContext& ctx, const Tensor& x, const Tensor& labels) {
  const int64_t B = x.shape()[0], L = x.shape()[1], H = hidden_;
  const DType dt = x.dtype();
  // Gather the [CLS] row (position 0 of each sequence): one small
  // strided-copy kernel, as is the scatter in backward.
  Tensor cls = ctx.alloc({B, H}, dt);
  simgpu::KernelDesc d;
  d.name = model_ + ".gather_cls";
  d.bytes_read = static_cast<int64_t>(cls.bytes());
  d.bytes_written = static_cast<int64_t>(cls.bytes());
  d.mem_efficiency = 0.6;
  ctx.kern.dev.launch(d, [&] {
    LS2_DISPATCH_FLOAT(dt, T, {
      const T* xp = x.data<T>();
      T* cp = cls.data<T>();
      for (int64_t b = 0; b < B; ++b)
        for (int64_t j = 0; j < H; ++j) cp[b * H + j] = xp[b * L * H + j];
    });
  });

  Tensor logits_nb = ctx.alloc({B, classes_}, dt);
  layers::linear_fw(ctx, cls, params_.value(w_), logits_nb, tag_);
  Tensor logits = ctx.alloc({B, classes_}, dt);
  kern::baseline::add_bias(ctx.kern, logits_nb, params_.value(b_), logits);

  const int64_t denom = denominator(ctx, B);
  const bool execute = ctx.device().mode() == simgpu::ExecMode::kExecute;
  ClsResult res;
  res.total = denom;
  if (execute) {
    // Accuracy first: LightSeq2's loss launch overwrites the logits with
    // their gradient.
    double correct = ctx.pp_metric_carry ? *ctx.pp_metric_carry : 0.0;
    const auto lg = logits.to_vector();
    const auto lb = labels.to_vector();
    for (int64_t b = 0; b < B; ++b) {
      int best = 0;
      for (int64_t c = 1; c < classes_; ++c) {
        if (lg[b * classes_ + c] > lg[b * classes_ + best]) best = static_cast<int>(c);
      }
      if (best == static_cast<int>(lb[static_cast<size_t>(b)])) correct += 1.0;
    }
    if (ctx.pp_metric_carry) *ctx.pp_metric_carry = correct;
    res.correct = static_cast<int64_t>(correct);
  }

  Tensor loss = ctx.alloc({B}, DType::kF32);
  Tensor stats = ctx.alloc({B, 2}, DType::kF32);
  const bool grad_in_logits = layers::criterion_grad_in_forward(ctx);
  kern::ls_cross_entropy_fw(ctx.kern, ctx.policy.criterion, logits, labels, loss, stats,
                            /*alpha=*/0.0f, /*ignore_index=*/-1,
                            grad_in_logits ? logits : Tensor{},
                            ctx.loss_scale / static_cast<float>(denom));

  if (execute) {
    double sum = ctx.pp_loss_carry ? *ctx.pp_loss_carry : 0.0;
    for (float v : loss.to_vector()) sum += v;
    if (ctx.pp_loss_carry) *ctx.pp_loss_carry = sum;
    res.loss = static_cast<float>(sum / static_cast<double>(denom));
  }
  saved_ = Saved{cls, logits, stats, labels, x.shape(), grad_in_logits};
  return res;
}

Tensor ClsHead::backward(layers::LayerContext& ctx) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  const Saved& s = *saved_;
  const int64_t B = s.cls.shape()[0];
  const DType dt = s.cls.dtype();
  // LightSeq2's forward launch left the gradient in the logits buffer (a
  // LightSeq2 forward that wrote none makes ls_cross_entropy_bw throw).
  Tensor dlogits = s.logits;
  if (!s.logits_hold_grad) {
    dlogits = ctx.alloc({B, classes_}, dt);
    kern::ls_cross_entropy_bw(ctx.kern, ctx.policy.criterion, s.logits, s.labels, s.stats,
                              dlogits, 0.0f,
                              ctx.loss_scale / static_cast<float>(denominator(ctx, B)), -1);
  }
  kern::bias_grad(ctx.kern, dlogits, params_.grad(b_));
  Tensor dcls = ctx.alloc({B, hidden_}, dt);
  layers::linear_bw(ctx, dlogits, s.cls, params_.value(w_), dcls, params_.grad(w_), tag_);
  params_.notify_grad_ready(range_);

  Tensor dx = ctx.alloc(s.x_shape, dt);
  const int64_t L = s.x_shape[1], H = hidden_;
  simgpu::KernelDesc d;
  d.name = model_ + ".scatter_cls";
  d.bytes_read = static_cast<int64_t>(dcls.bytes());
  d.bytes_written = static_cast<int64_t>(dx.bytes());
  d.mem_efficiency = 0.6;
  ctx.kern.dev.launch(d, [&] {
    LS2_DISPATCH_FLOAT(dt, T, {
      const T* cp = dcls.data<T>();
      T* xp = dx.data<T>();
      std::memset(dx.raw(), 0, dx.bytes());
      for (int64_t b = 0; b < B; ++b)
        for (int64_t j = 0; j < H; ++j) xp[b * L * H + j] = cp[b * H + j];
    });
  });
  return dx;
}

}  // namespace ls2::models
