#include "kernels/elementwise.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace ls2::kern {

namespace {

// Achieved bandwidth: framework element-wise kernels are generic/strided;
// LightSeq2 kernels use vectorised (half2/float4) accesses.
constexpr double kBaselineEff = 0.70;
constexpr double kFusedEff = 0.85;

simgpu::KernelDesc ew_desc(std::string name, int64_t bytes_read, int64_t bytes_written,
                           int64_t n, double flops_per_elem, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = bytes_read;
  d.bytes_written = bytes_written;
  d.flops = static_cast<double>(n) * flops_per_elem;
  d.mem_efficiency = eff;
  d.compute_efficiency = 0.6;
  return d;
}

template <typename T>
inline float gelu_val(float x) = delete;

inline float gelu_scalar(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  return 0.5f * x * (1.0f + std::tanh(kC * (x + 0.044715f * x * x * x)));
}

inline float gelu_grad_scalar(float x) {
  constexpr float kC = 0.7978845608028654f;
  const float x3 = x * x * x;
  const float t = std::tanh(kC * (x + 0.044715f * x3));
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * kC * (1.0f + 3.0f * 0.044715f * x * x);
}

void check_same_numel(const Tensor& a, const Tensor& b) {
  LS2_CHECK_EQ(a.numel(), b.numel());
  LS2_CHECK(a.dtype() == b.dtype()) << "dtype mismatch";
}

// Launch `body`, an element-wise chain described by `d` that writes `dst`:
// on its own, or as the epilogue of `gemm` (fused:: in elementwise.h gives
// the charge rule).
void launch_epilogue(KernelContext& kc, const simgpu::KernelDesc& d,
                     const gemm::GemmLaunch* gemm, const Tensor& dst,
                     const std::function<void()>& body) {
  if (gemm == nullptr) {
    kc.dev.launch(d, body);
    return;
  }
  LS2_CHECK(kc.dev.charge_scale() == 1.0)
      << d.name << " as the epilogue of " << gemm->desc.name
      << ": the GEMM carries its shard charge; no charge scale may be active";
  const int64_t c_bytes = static_cast<int64_t>(gemm->c.bytes());
  const bool in_place = dst.raw() == gemm->c.raw();
  const double s = gemm->c_share;
  // TpChargeScale's rounding (simgpu::Device), applied to the chain's part.
  auto at_share = [s](int64_t bytes) {
    return static_cast<int64_t>(static_cast<double>(bytes) * s);
  };
  simgpu::KernelDesc f = gemm->desc;
  f.bytes_read += at_share(d.bytes_read - c_bytes);
  f.bytes_written += at_share(d.bytes_written - (in_place ? c_bytes : 0));
  f.flops += d.flops * s;
  f.mem_efficiency = std::min(f.mem_efficiency, d.mem_efficiency);
  kc.dev.launch(f, [&] {
    gemm->body();
    body();
  });
}

void add_body(const Tensor& a, const Tensor& b, const Tensor& y) {
  LS2_DISPATCH_FLOAT(a.dtype(), T, {
    const T* ap = a.data<T>();
    const T* bp = b.data<T>();
    T* yp = y.data<T>();
    parallel_for(0, a.numel(), [&](int64_t i) {
      yp[i] = T(static_cast<float>(ap[i]) + static_cast<float>(bp[i]));
    });
  });
}

}  // namespace

namespace baseline {

void add_bias(KernelContext& kc, const Tensor& x, const Tensor& bias, const Tensor& y) {
  check_same_numel(x, y);
  const Shape flat = x.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  LS2_CHECK_EQ(bias.numel(), cols);
  kc.dev.launch(
      ew_desc("torch.add_bias", x.bytes() + bias.bytes(), y.bytes(), x.numel(), 1.0,
              kBaselineEff),
      [&, rows, cols] {
        LS2_DISPATCH_FLOAT(x.dtype(), T, {
          const T* xp = x.data<T>();
          const T* bp = bias.data<T>();
          T* yp = y.data<T>();
          parallel_for(0, rows * cols, [&](int64_t i) {
            yp[i] = T(static_cast<float>(xp[i]) + static_cast<float>(bp[i % cols]));
          });
        });
      });
}

void relu_fw(KernelContext& kc, const Tensor& x, const Tensor& y) {
  check_same_numel(x, y);
  kc.dev.launch(ew_desc("torch.relu_fw", x.bytes(), y.bytes(), x.numel(), 1.0, kBaselineEff),
                [&] {
                  LS2_DISPATCH_FLOAT(x.dtype(), T, {
                    const T* xp = x.data<T>();
                    T* yp = y.data<T>();
                    parallel_for(0, x.numel(), [&](int64_t i) {
                      const float v = static_cast<float>(xp[i]);
                      yp[i] = T(v > 0.0f ? v : 0.0f);
                    });
                  });
                });
}

void relu_bw(KernelContext& kc, const Tensor& dy, const Tensor& x, const Tensor& dx) {
  check_same_numel(dy, dx);
  check_same_numel(dy, x);
  kc.dev.launch(ew_desc("torch.relu_bw", dy.bytes() + x.bytes(), dx.bytes(), x.numel(), 1.0,
                        kBaselineEff),
                [&] {
                  LS2_DISPATCH_FLOAT(x.dtype(), T, {
                    const T* dyp = dy.data<T>();
                    const T* xp = x.data<T>();
                    T* dxp = dx.data<T>();
                    parallel_for(0, x.numel(), [&](int64_t i) {
                      dxp[i] = T(static_cast<float>(xp[i]) > 0.0f
                                     ? static_cast<float>(dyp[i])
                                     : 0.0f);
                    });
                  });
                });
}

void gelu_fw(KernelContext& kc, const Tensor& x, const Tensor& y) {
  check_same_numel(x, y);
  kc.dev.launch(ew_desc("torch.gelu_fw", x.bytes(), y.bytes(), x.numel(), 10.0, kBaselineEff),
                [&] {
                  LS2_DISPATCH_FLOAT(x.dtype(), T, {
                    const T* xp = x.data<T>();
                    T* yp = y.data<T>();
                    parallel_for(0, x.numel(), [&](int64_t i) {
                      yp[i] = T(gelu_scalar(static_cast<float>(xp[i])));
                    });
                  });
                });
}

void gelu_bw(KernelContext& kc, const Tensor& dy, const Tensor& x, const Tensor& dx) {
  check_same_numel(dy, dx);
  kc.dev.launch(ew_desc("torch.gelu_bw", dy.bytes() + x.bytes(), dx.bytes(), x.numel(), 14.0,
                        kBaselineEff),
                [&] {
                  LS2_DISPATCH_FLOAT(x.dtype(), T, {
                    const T* dyp = dy.data<T>();
                    const T* xp = x.data<T>();
                    T* dxp = dx.data<T>();
                    parallel_for(0, x.numel(), [&](int64_t i) {
                      dxp[i] = T(static_cast<float>(dyp[i]) *
                                 gelu_grad_scalar(static_cast<float>(xp[i])));
                    });
                  });
                });
}

void add(KernelContext& kc, const Tensor& a, const Tensor& b, const Tensor& y) {
  check_same_numel(a, b);
  check_same_numel(a, y);
  kc.dev.launch(
      ew_desc("torch.add", a.bytes() + b.bytes(), y.bytes(), a.numel(), 1.0, kBaselineEff),
      [&] { add_body(a, b, y); });
}

void scale(KernelContext& kc, const Tensor& x, const Tensor& y, float s) {
  check_same_numel(x, y);
  kc.dev.launch(ew_desc("torch.scale", x.bytes(), y.bytes(), x.numel(), 1.0, kBaselineEff),
                [&, s] {
                  LS2_DISPATCH_FLOAT(x.dtype(), T, {
                    const T* xp = x.data<T>();
                    T* yp = y.data<T>();
                    parallel_for(0, x.numel(),
                                 [&](int64_t i) { yp[i] = T(static_cast<float>(xp[i]) * s); });
                  });
                });
}

void cast(KernelContext& kc, const Tensor& x, const Tensor& y) {
  LS2_CHECK_EQ(x.numel(), y.numel());
  kc.dev.launch(ew_desc("torch.cast", x.bytes(), y.bytes(), x.numel(), 1.0, kBaselineEff),
                [&] {
                  if (x.dtype() == DType::kF32 && y.dtype() == DType::kF16) {
                    convert_float_to_half(x.data<float>(), y.data<Half>(), x.numel());
                  } else if (x.dtype() == DType::kF16 && y.dtype() == DType::kF32) {
                    convert_half_to_float(x.data<Half>(), y.data<float>(), x.numel());
                  } else {
                    LS2_CHECK(x.dtype() == y.dtype()) << "unsupported cast";
                    y.copy_(x);
                  }
                });
}

void zero(KernelContext& kc, const Tensor& y) {
  kc.dev.launch(ew_desc("torch.zero", 0, y.bytes(), y.numel(), 0.0, kBaselineEff),
                [&] { y.zero_(); });
}

}  // namespace baseline

namespace fused {

namespace {
// The chain's input must be the output its producing GEMM writes.
void check_gemm_output(const gemm::GemmLaunch* gemm, const Tensor& in) {
  LS2_CHECK(gemm == nullptr || (gemm->c.raw() == in.raw() && gemm->c.numel() == in.numel() &&
                                gemm->c.dtype() == in.dtype()))
      << "an epilogue's input must be its GEMM's output";
}

// Shared body for bias + activation + dropout forward.
template <typename T, typename Act>
void bias_act_dropout_body(const Tensor& x, const Tensor& bias, const Tensor& y,
                           const Tensor& mask, float p, const Rng& rng, uint64_t stream,
                           uint64_t index_offset, Act act) {
  const Shape flat = x.shape().flatten_2d();
  const int64_t cols = flat[1];
  const float keep_scale = 1.0f / (1.0f - p);
  const T* xp = x.data<T>();
  const T* bp = bias.data<T>();
  T* yp = y.data<T>();
  uint8_t* mp = mask.data<uint8_t>();
  parallel_for(0, x.numel(), [&](int64_t i) {
    const float v =
        act(static_cast<float>(xp[i]) + static_cast<float>(bp[i % cols]));
    const uint8_t keep =
        rng.uniform(stream, index_offset + static_cast<uint64_t>(i)) >= p ? 1 : 0;
    mp[i] = keep;
    yp[i] = T(keep ? v * keep_scale : 0.0f);
  });
}

template <typename T, typename ActGrad>
void bias_act_dropout_bw_body(const Tensor& dy, const Tensor& mask, const Tensor& x,
                              const Tensor& bias, const Tensor& dx, float p, ActGrad dact) {
  const Shape flat = x.shape().flatten_2d();
  const int64_t cols = flat[1];
  const float keep_scale = 1.0f / (1.0f - p);
  const T* dyp = dy.data<T>();
  const T* xp = x.data<T>();
  const T* bp = bias.data<T>();
  const uint8_t* mp = mask.data<uint8_t>();
  T* dxp = dx.data<T>();
  parallel_for(0, x.numel(), [&](int64_t i) {
    const float pre = static_cast<float>(xp[i]) + static_cast<float>(bp[i % cols]);
    const float g = mp[i] ? static_cast<float>(dyp[i]) * keep_scale : 0.0f;
    dxp[i] = T(g * dact(pre));
  });
}
}  // namespace

void bias_relu_dropout_fw(KernelContext& kc, const Tensor& x, const Tensor& bias,
                          const Tensor& y, const Tensor& mask, float p, uint64_t stream,
                          const gemm::GemmLaunch* gemm) {
  LS2_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  check_gemm_output(gemm, x);
  // Baked by value at launch time so a captured graph node replays the
  // microbatch's own mask slice (KernelContext::microbatch).
  const uint64_t mb_off = kc.microbatch * static_cast<uint64_t>(x.numel());
  launch_epilogue(kc,
                  ew_desc("ls2.bias_relu_dropout_fw", x.bytes() + bias.bytes(),
                          y.bytes() + mask.bytes(), x.numel(), 4.0, kFusedEff),
                  gemm, y, [&, p, stream, mb_off] {
                    LS2_DISPATCH_FLOAT(x.dtype(), T, {
                      bias_act_dropout_body<T>(x, bias, y, mask, p, kc.rng, stream, mb_off,
                                               [](float v) { return v > 0.0f ? v : 0.0f; });
                    });
                  });
}

void bias_relu_dropout_bw(KernelContext& kc, const Tensor& dy, const Tensor& mask,
                          const Tensor& x, const Tensor& bias, const Tensor& dx, float p,
                          const Tensor& dbias, const gemm::GemmLaunch* gemm) {
  check_gemm_output(gemm, dy);
  detail::launch_folding_bias_grad(
      kc,
      ew_desc("ls2.bias_relu_dropout_bw", dy.bytes() + mask.bytes() + x.bytes() + bias.bytes(),
              dx.bytes(), x.numel(), 4.0, kFusedEff),
      dx, dbias,
      [&, p] {
        LS2_DISPATCH_FLOAT(x.dtype(), T, {
          bias_act_dropout_bw_body<T>(dy, mask, x, bias, dx, p,
                                      [](float pre) { return pre > 0.0f ? 1.0f : 0.0f; });
        });
      },
      gemm);
}

void bias_gelu_dropout_fw(KernelContext& kc, const Tensor& x, const Tensor& bias,
                          const Tensor& y, const Tensor& mask, float p, uint64_t stream,
                          const gemm::GemmLaunch* gemm) {
  LS2_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  check_gemm_output(gemm, x);
  const uint64_t mb_off = kc.microbatch * static_cast<uint64_t>(x.numel());
  launch_epilogue(kc,
                  ew_desc("ls2.bias_gelu_dropout_fw", x.bytes() + bias.bytes(),
                          y.bytes() + mask.bytes(), x.numel(), 12.0, kFusedEff),
                  gemm, y, [&, p, stream, mb_off] {
                    LS2_DISPATCH_FLOAT(x.dtype(), T, {
                      bias_act_dropout_body<T>(x, bias, y, mask, p, kc.rng, stream, mb_off,
                                               gelu_scalar);
                    });
                  });
}

void bias_gelu_dropout_bw(KernelContext& kc, const Tensor& dy, const Tensor& mask,
                          const Tensor& x, const Tensor& bias, const Tensor& dx, float p,
                          const Tensor& dbias, const gemm::GemmLaunch* gemm) {
  check_gemm_output(gemm, dy);
  detail::launch_folding_bias_grad(
      kc,
      ew_desc("ls2.bias_gelu_dropout_bw", dy.bytes() + mask.bytes() + x.bytes() + bias.bytes(),
              dx.bytes(), x.numel(), 16.0, kFusedEff),
      dx, dbias,
      [&, p] {
        LS2_DISPATCH_FLOAT(x.dtype(), T, {
          bias_act_dropout_bw_body<T>(dy, mask, x, bias, dx, p, gelu_grad_scalar);
        });
      },
      gemm);
}

void bias_dropout_residual_fw(KernelContext& kc, const Tensor& x, const Tensor& bias,
                              const Tensor& residual, const Tensor& y, const Tensor& mask,
                              float p, uint64_t stream, const gemm::GemmLaunch* gemm) {
  LS2_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  LS2_CHECK_EQ(x.numel(), residual.numel());
  const Shape flat = x.shape().flatten_2d();
  const int64_t cols = flat[1];
  LS2_CHECK_EQ(bias.numel(), cols);
  check_gemm_output(gemm, x);
  launch_epilogue(
      kc,
      ew_desc("ls2.bias_dropout_residual_fw", x.bytes() + bias.bytes() + residual.bytes(),
              y.bytes() + mask.bytes(), x.numel(), 4.0, kFusedEff),
      gemm, y,
      [&, p, stream, cols, mb_off = kc.microbatch * static_cast<uint64_t>(x.numel())] {
        LS2_DISPATCH_FLOAT(x.dtype(), T, {
          const float keep_scale = 1.0f / (1.0f - p);
          const T* xp = x.data<T>();
          const T* bp = bias.data<T>();
          const T* rp = residual.data<T>();
          T* yp = y.data<T>();
          uint8_t* mp = mask.data<uint8_t>();
          // y may be x (an epilogue in place): each index reads x first.
          parallel_for(0, x.numel(), [&](int64_t i) {
            const float v = static_cast<float>(xp[i]) + static_cast<float>(bp[i % cols]);
            const uint8_t keep =
                kc.rng.uniform(stream, mb_off + static_cast<uint64_t>(i)) >= p ? 1 : 0;
            mp[i] = keep;
            yp[i] = T(static_cast<float>(rp[i]) + (keep ? v * keep_scale : 0.0f));
          });
        });
      });
}

void bias_dropout_residual_bw(KernelContext& kc, const Tensor& dy, const Tensor& mask,
                              const Tensor& dx, float p, const Tensor& dbias) {
  detail::launch_folding_bias_grad(
      kc,
      ew_desc("ls2.bias_dropout_residual_bw", dy.bytes() + mask.bytes(), dx.bytes(),
              dy.numel(), 2.0, kFusedEff),
      dx, dbias, [&, p] {
        LS2_DISPATCH_FLOAT(dy.dtype(), T, {
          const float keep_scale = 1.0f / (1.0f - p);
          const T* dyp = dy.data<T>();
          const uint8_t* mp = mask.data<uint8_t>();
          T* dxp = dx.data<T>();
          parallel_for(0, dy.numel(), [&](int64_t i) {
            dxp[i] = T(mp[i] ? static_cast<float>(dyp[i]) * keep_scale : 0.0f);
          });
        });
      });
}

}  // namespace fused

namespace {

// The one column-sum body behind bias_grad and every kernel that folds it,
// over the columns [col, col + dbias.numel()) of `x` flattened to
// [rows, ld]. Accumulates in FP32 FROM the destination, ascending rows —
// the same per-element chain whether the batch arrives whole or as
// microbatch slices (pipeline parallelism): slice j continues exactly where
// slice j-1 left off, so the final value is bitwise the full-batch
// reduction's. Callers rely on grads being zeroed at step start.
void column_sum_body(const Tensor& x, int64_t ld, int64_t col, const Tensor& dbias,
                     int64_t rows) {
  LS2_DISPATCH_FLOAT(x.dtype(), T, {
    const T* xp = x.data<T>() + col;
    T* dbp = dbias.data<T>();
    parallel_for(0, dbias.numel(), [&](int64_t j) {
      float acc = static_cast<float>(dbp[j]);
      for (int64_t i = 0; i < rows; ++i) acc += static_cast<float>(xp[i * ld + j]);
      dbp[j] = T(acc);
    });
  });
}

}  // namespace

void bias_grad(KernelContext& kc, const Tensor& dx, const Tensor& dbias) {
  const Shape flat = dx.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  LS2_CHECK_EQ(dbias.numel(), cols);
  simgpu::KernelDesc d = ew_desc("ls2.bias_grad", dx.bytes(), dbias.bytes(), dx.numel(), 1.0,
                                 reduction_efficiency(0.85, cols, rows, 32));
  kc.dev.launch(d, [&, rows, cols] { column_sum_body(dx, cols, 0, dbias, rows); });
}

namespace detail {

namespace {

// The folds' charge joins `d` (launch_folding_bias_grad's rule); returns the
// body that runs `body` and then the folds' column sums.
std::function<void()> fold_into(KernelContext& kc, simgpu::KernelDesc& d,
                                const std::vector<BiasFold>& folds,
                                const std::function<void()>& body) {
  if (folds.empty()) return body;
  // The reductions ride in registers: no second read of the rows, one write
  // of each dbias, and LightSeq2's 128-row column tile sets the launch's
  // occupancy.
  const double base = d.mem_efficiency;
  int64_t tile_cols = 0;
  for (size_t f = 0; f < folds.size(); ++f) {
    const BiasFold& fold = folds[f];
    const Shape flat = fold.rows.shape().flatten_2d();
    const int64_t rows = flat[0], cols = fold.dbias.numel();
    LS2_CHECK(fold.col >= 0 && fold.col + cols <= flat[1])
        << "fold columns [" << fold.col << ", " << fold.col + cols << ") of "
        << fold.rows.shape().str();
    LS2_CHECK(fold.dbias.dtype() == fold.rows.dtype()) << "dbias and dx dtypes differ";
    d.bytes_written += static_cast<int64_t>(fold.dbias.bytes());
    d.flops += static_cast<double>(rows * cols);
    tile_cols += cols;
    const BiasFold* next = f + 1 < folds.size() ? &folds[f + 1] : nullptr;
    if (next && next->rows.raw() == fold.rows.raw() &&
        next->rows.shape() == fold.rows.shape() && next->col == fold.col + cols)
      continue;  // the next fold continues this column block
    d.mem_efficiency =
        std::min(d.mem_efficiency, column_fold_efficiency(kc, base, tile_cols, rows));
    tile_cols = 0;
  }
  return [&folds, &body] {
    body();
    for (const BiasFold& fold : folds) {
      const Shape flat = fold.rows.shape().flatten_2d();
      column_sum_body(fold.rows, flat[1], fold.col, fold.dbias, flat[0]);
    }
  };
}

}  // namespace

void launch_folding_bias_grad(KernelContext& kc, simgpu::KernelDesc d,
                              const std::vector<BiasFold>& folds,
                              const std::function<void()>& body) {
  const std::function<void()> run = fold_into(kc, d, folds, body);
  kc.dev.launch(d, run);
}

void launch_folding_bias_grad(KernelContext& kc, simgpu::KernelDesc d, const Tensor& dx,
                              const Tensor& dbias, const std::function<void()>& body,
                              const gemm::GemmLaunch* gemm) {
  LS2_CHECK(!dbias.defined() || dbias.numel() == dx.shape().flatten_2d()[1])
      << "dbias must have one element per column of dx";
  const std::vector<BiasFold> folds =
      dbias.defined() ? std::vector<BiasFold>{{dx, dbias}} : std::vector<BiasFold>{};
  const std::function<void()> run = fold_into(kc, d, folds, body);
  launch_epilogue(kc, d, gemm, dx, run);
}

}  // namespace detail

}  // namespace ls2::kern
