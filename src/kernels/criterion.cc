#include "kernels/criterion.h"

#include <cmath>

#include "common/parallel.h"

namespace ls2::kern {

namespace {

simgpu::KernelDesc desc(std::string name, int64_t br, int64_t bw, double flops, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = br;
  d.bytes_written = bw;
  d.flops = flops;
  d.mem_efficiency = eff;
  return d;
}

template <typename T>
void ce_fw_body(const Tensor& logits, const Tensor& targets, const Tensor& loss,
                const Tensor& stats, float alpha, int32_t ignore_index) {
  const int64_t rows = logits.shape().flatten_2d()[0];
  const int64_t V = logits.shape()[-1];
  const T* lp = logits.data<T>();
  const int32_t* tp = targets.data<int32_t>();
  float* lossp = loss.data<float>();
  float* sp = stats.data<float>();
  parallel_for(0, rows, [&](int64_t r) {
    const int32_t k = tp[r];
    if (k == ignore_index) {
      lossp[r] = 0.0f;
      sp[r * 2] = 0.0f;
      sp[r * 2 + 1] = 0.0f;
      return;
    }
    LS2_CHECK(k >= 0 && k < V) << "target " << k << " out of vocab " << V;
    const T* row = lp + r * V;
    double mx = -std::numeric_limits<double>::infinity();
    double sum_x = 0;
    for (int64_t j = 0; j < V; ++j) {
      const double v = static_cast<float>(row[j]);
      mx = std::max(mx, v);
      sum_x += v;
    }
    double z = 0;
    for (int64_t j = 0; j < V; ++j) z += std::exp(static_cast<double>(static_cast<float>(row[j])) - mx);
    const double log_z = std::log(z);
    // log q_i = x_i - mx - log_z; sum_i log q_i = sum_x - V*(mx + log_z).
    const double log_qk = static_cast<float>(row[k]) - mx - log_z;
    const double sum_log_q = sum_x - static_cast<double>(V) * (mx + log_z);
    lossp[r] = static_cast<float>(-(1.0 - alpha) * log_qk -
                                  (alpha / static_cast<double>(V)) * sum_log_q);
    sp[r * 2] = static_cast<float>(mx);
    sp[r * 2 + 1] = static_cast<float>(log_z);
  });
}

template <typename T>
void ce_bw_body(const Tensor& logits, const Tensor& targets, const Tensor& stats,
                const Tensor& dlogits, float alpha, float grad_scale, int32_t ignore_index) {
  const int64_t rows = logits.shape().flatten_2d()[0];
  const int64_t V = logits.shape()[-1];
  const T* lp = logits.data<T>();
  const int32_t* tp = targets.data<int32_t>();
  const float* sp = stats.data<float>();
  T* dp = dlogits.data<T>();
  const float off = alpha / static_cast<float>(V);
  parallel_for(0, rows, [&](int64_t r) {
    const int32_t k = tp[r];
    const T* row = lp + r * V;
    T* drow = dp + r * V;
    if (k == ignore_index) {
      for (int64_t j = 0; j < V; ++j) drow[j] = T(0.0f);
      return;
    }
    const float mx = sp[r * 2];
    const float log_z = sp[r * 2 + 1];
    for (int64_t j = 0; j < V; ++j) {
      const float q = std::exp(static_cast<float>(row[j]) - mx - log_z);
      float g = q - off;
      if (j == k) g -= (1.0f - alpha);
      drow[j] = T(g * grad_scale);
    }
  });
}

}  // namespace

void ls_cross_entropy_fw(KernelContext& kc, Impl impl, const Tensor& logits,
                         const Tensor& targets, const Tensor& loss, const Tensor& stats,
                         float alpha, int32_t ignore_index, const Tensor& dlogits,
                         float grad_scale) {
  const Shape flat = logits.shape().flatten_2d();
  const int64_t rows = flat[0], V = flat[1];
  LS2_CHECK_EQ(targets.numel(), rows);
  LS2_CHECK_EQ(loss.numel(), rows);
  LS2_CHECK_EQ(stats.numel(), rows * 2);
  LS2_CHECK(loss.dtype() == DType::kF32 && stats.dtype() == DType::kF32);
  LS2_CHECK(alpha >= 0.0f && alpha < 1.0f);
  const bool with_grad = dlogits.defined();
  if (with_grad) {
    LS2_CHECK(impl == Impl::kLS2)
        << impl_name(impl) << " computes the criterion gradient in ls_cross_entropy_bw";
    LS2_CHECK_EQ(dlogits.numel(), logits.numel());
    LS2_CHECK(dlogits.dtype() == logits.dtype()) << "dlogits and logits dtypes differ";
  }
  const int64_t lb = static_cast<int64_t>(logits.bytes());
  const double flops = static_cast<double>(rows) * V * 4.0;

  if (impl == Impl::kLS2) {
    // One launch; nothing V-wide is materialised. With a gradient
    // destination the launch also writes the gradient over the row it has
    // just reduced: a 64 KB FP16 row at V = 32768 stays in shared memory, so
    // the logits are not read again, only the gradient is written.
    simgpu::KernelDesc d = desc("ls2.criterion_fw", lb + rows * 4, rows * 12, flops,
                                reduction_efficiency(0.88, rows, V, 32));
    if (with_grad) {
      d.bytes_written += static_cast<int64_t>(dlogits.bytes());
      d.flops += static_cast<double>(rows) * V * 3.0;
    }
    kc.dev.launch(d, [&, alpha, ignore_index, grad_scale, with_grad] {
      LS2_DISPATCH_FLOAT(logits.dtype(), T, {
        ce_fw_body<T>(logits, targets, loss, stats, alpha, ignore_index);
        if (with_grad)
          ce_bw_body<T>(logits, targets, stats, dlogits, alpha, grad_scale, ignore_index);
      });
    });
    return;
  }
  // Baseline: softmax (3 launches, see softmax.cc), log, gather-NLL, smooth
  // term — with a [rows, V] probability temp written and re-read.
  const double eff = reduction_efficiency(0.55, rows, V, 32);
  Tensor probs = Tensor::empty(logits.shape(), logits.dtype(), kc.scratch);
  kc.dev.launch(desc("torch.softmax_max", lb, rows * 4, flops / 4, eff), nullptr);
  kc.dev.launch(desc("torch.softmax_expsum", lb + rows * 4,
                     static_cast<int64_t>(probs.bytes()) + rows * 4, flops / 2, eff),
                nullptr);
  kc.dev.launch(desc("torch.softmax_norm", static_cast<int64_t>(probs.bytes()) + rows * 4,
                     static_cast<int64_t>(probs.bytes()), flops / 4, 0.70),
                nullptr);
  kc.dev.launch(desc("torch.log", static_cast<int64_t>(probs.bytes()),
                     static_cast<int64_t>(probs.bytes()), flops / 4, 0.70),
                nullptr);
  kc.dev.launch(desc("torch.nll_gather", static_cast<int64_t>(probs.bytes()) + rows * 4,
                     rows * 4, static_cast<double>(rows), 0.55),
                nullptr);
  kc.dev.launch(desc("torch.smooth_sum", static_cast<int64_t>(probs.bytes()), rows * 4,
                     flops / 4, eff),
                [&, alpha, ignore_index] {
                  LS2_DISPATCH_FLOAT(logits.dtype(), T,
                                     ce_fw_body<T>(logits, targets, loss, stats, alpha,
                                                   ignore_index));
                });
}

void ls_cross_entropy_bw(KernelContext& kc, Impl impl, const Tensor& logits,
                         const Tensor& targets, const Tensor& stats, const Tensor& dlogits,
                         float alpha, float grad_scale, int32_t ignore_index) {
  LS2_CHECK(impl != Impl::kLS2)
      << "LightSeq2 writes the criterion gradient from ls_cross_entropy_fw's launch";
  const Shape flat = logits.shape().flatten_2d();
  const int64_t rows = flat[0], V = flat[1];
  LS2_CHECK_EQ(dlogits.numel(), logits.numel());
  const int64_t lb = static_cast<int64_t>(logits.bytes());
  const double flops = static_cast<double>(rows) * V * 3.0;

  // Baseline: exp(log-probs), smoothing subtraction, one-hot scatter, scale.
  kc.dev.launch(desc("torch.ce_bw_exp", lb, lb, flops / 3, 0.70), nullptr);
  kc.dev.launch(desc("torch.ce_bw_smooth", lb, lb, flops / 3, 0.70), nullptr);
  kc.dev.launch(desc("torch.ce_bw_scatter", rows * 8, rows * 4, 0, 0.55), nullptr);
  kc.dev.launch(desc("torch.ce_bw_scale", lb, static_cast<int64_t>(dlogits.bytes()),
                     flops / 3, 0.70),
                [&, alpha, grad_scale, ignore_index] {
                  LS2_DISPATCH_FLOAT(logits.dtype(), T,
                                     ce_bw_body<T>(logits, targets, stats, dlogits, alpha,
                                                   grad_scale, ignore_index));
                });
}

void reduce_sum(KernelContext& kc, const Tensor& x, const Tensor& out, double* carry) {
  LS2_CHECK(x.dtype() == DType::kF32 && out.dtype() == DType::kF32);
  LS2_CHECK_GE(out.numel(), 1);
  kc.dev.launch(desc("ls2.reduce_sum", static_cast<int64_t>(x.bytes()), 4,
                     static_cast<double>(x.numel()),
                     reduction_efficiency(0.85, 1, x.numel(), 256)),
                [&, carry] {
                  const float* xp = x.data<float>();
                  // With a carry, the double accumulator continues across
                  // calls — microbatch slices (pipeline parallelism) sum in
                  // the exact order the full batch would, so the final
                  // float cast is bitwise the full-batch reduction.
                  double acc = carry ? *carry : 0.0;
                  for (int64_t i = 0; i < x.numel(); ++i) acc += xp[i];
                  if (carry) *carry = acc;
                  out.data<float>()[0] = static_cast<float>(acc);
                });
}

}  // namespace ls2::kern
