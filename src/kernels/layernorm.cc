#include "kernels/layernorm.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace ls2::kern {

namespace {

// --- achieved-bandwidth curves per implementation (see DESIGN.md §2) ---

double torch_red_eff(int64_t rows, int64_t cols) {
  return reduction_efficiency(0.52, rows, cols, 32);
}

double tf_red_eff(int64_t rows, int64_t cols) {
  // Trails PyTorch at small sizes; its tiled reductions catch up (and pass)
  // only for very large inputs — Fig. 16's crossover.
  const double e = static_cast<double>(rows) * static_cast<double>(cols);
  return reduction_efficiency(0.45 + 0.33 * (e / (e + 2.5e7)), rows, cols, 32);
}

double deepspeed_eff(int64_t rows, int64_t cols) {
  // Fixed one-block-per-row geometry: fine until the input outgrows the
  // grid, then achieved bandwidth collapses (Fig. 16: DeepSpeed falls below
  // PyTorch at large batch-token sizes / hidden dims).
  const double e = static_cast<double>(rows) * static_cast<double>(cols);
  const double penalty = std::pow(std::min(1.0, 6e6 / e), 0.55);
  return std::max(0.08, reduction_efficiency(0.85, rows, cols, 256) * penalty);
}

double ls2_red_eff(int64_t rows, int64_t cols) {
  // LightSeq2 tunes the thread team per shape (§IV-B's template search also
  // covers LayerNorm): pick the best of sub-warp..block teams.
  double best = 0;
  for (int threads : {8, 16, 32, 64, 128, 256}) {
    best = std::max(best, reduction_efficiency(0.90, rows, cols, threads));
  }
  return best;
}

struct Rows {
  int64_t rows;
  int64_t cols;
};

Rows shape_of(const Tensor& x) {
  const Shape flat = x.shape().flatten_2d();
  return {flat[0], flat[1]};
}

// Numerics shared by every implementation: one definition, so all systems
// produce bit-identical results and differ only in launch/byte accounting.
template <typename T>
void compute_stats(const Tensor& x, const Tensor& mean, const Tensor& rstd, float eps) {
  const auto [rows, cols] = shape_of(x);
  const T* xp = x.data<T>();
  float* mp = mean.data<float>();
  float* rp = rstd.data<float>();
  parallel_for(0, rows, [&](int64_t r) {
    // Single pass: accumulate E[x] and E[x^2] together (the paper's
    // rewrite); f32 accumulators guard the cancellation in E[x^2]-E[x]^2.
    double s = 0, s2 = 0;
    const T* row = xp + r * cols;
    for (int64_t j = 0; j < cols; ++j) {
      const double v = static_cast<float>(row[j]);
      s += v;
      s2 += v * v;
    }
    const double mu = s / static_cast<double>(cols);
    const double var = std::max(0.0, s2 / static_cast<double>(cols) - mu * mu);
    mp[r] = static_cast<float>(mu);
    rp[r] = static_cast<float>(1.0 / std::sqrt(var + eps));
  });
}

template <typename T>
void compute_normalize(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                       const Tensor& y, const Tensor& mean, const Tensor& rstd) {
  const auto [rows, cols] = shape_of(x);
  const T* xp = x.data<T>();
  const T* gp = gamma.data<T>();
  const T* bp = beta.data<T>();
  T* yp = y.data<T>();
  const float* mp = mean.data<float>();
  const float* rp = rstd.data<float>();
  parallel_for(0, rows, [&](int64_t r) {
    const float mu = mp[r], rs = rp[r];
    const T* xrow = xp + r * cols;
    T* yrow = yp + r * cols;
    for (int64_t j = 0; j < cols; ++j) {
      yrow[j] = T((static_cast<float>(xrow[j]) - mu) * rs * static_cast<float>(gp[j]) +
                  static_cast<float>(bp[j]));
    }
  });
}

template <typename T>
void compute_dx(const Tensor& dy, const Tensor& x, const Tensor& gamma, const Tensor& mean,
                const Tensor& rstd, const Tensor& dx, const Tensor* residual_grad) {
  const T* resp = residual_grad ? residual_grad->data<T>() : nullptr;
  const auto [rows, cols] = shape_of(x);
  const T* dyp = dy.data<T>();
  const T* xp = x.data<T>();
  const T* gp = gamma.data<T>();
  const float* mp = mean.data<float>();
  const float* rp = rstd.data<float>();
  T* dxp = dx.data<T>();
  const double m = static_cast<double>(cols);
  parallel_for(0, rows, [&](int64_t r) {
    const T* dyrow = dyp + r * cols;
    const T* xrow = xp + r * cols;
    T* dxrow = dxp + r * cols;
    const double mu = mp[r];
    const double rs = rp[r];  // 1/sigma
    // The two independent reductions of the rearranged formula.
    double s1 = 0, s2 = 0;
    for (int64_t j = 0; j < cols; ++j) {
      const double wdy = static_cast<double>(static_cast<float>(gp[j])) *
                         static_cast<float>(dyrow[j]);
      s1 += wdy;
      s2 += wdy * static_cast<float>(xrow[j]);
    }
    const double rs3 = rs * rs * rs;
    for (int64_t j = 0; j < cols; ++j) {
      const double xi = static_cast<float>(xrow[j]);
      const double sigma2 = 1.0 / (rs * rs);
      const double alpha = ((xi - mu) * mu - sigma2) * rs3 / m;
      const double beta_c = (mu - xi) * rs3 / m;
      const double wdy = static_cast<double>(static_cast<float>(gp[j])) *
                         static_cast<float>(dyrow[j]);
      double v = wdy * rs + alpha * s1 + beta_c * s2;
      if (resp) v += static_cast<float>(resp[r * cols + j]);
      dxrow[j] = T(static_cast<float>(v));
    }
  });
}

template <typename T>
void compute_param_grads(const Tensor& dy, const Tensor& x, const Tensor& mean,
                         const Tensor& rstd, const Tensor& dgamma, const Tensor& dbeta) {
  const auto [rows, cols] = shape_of(x);
  const T* dyp = dy.data<T>();
  const T* xp = x.data<T>();
  const float* mp = mean.data<float>();
  const float* rp = rstd.data<float>();
  T* dgp = dgamma.data<T>();
  T* dbp = dbeta.data<T>();
  // FP32 accumulation FROM the destination, ascending rows: microbatch
  // slices (pipeline parallelism) continue the exact chain the full batch
  // would run, so the accumulated grads are bitwise identical. Grads are
  // zeroed at step start, like the beta=1 dW GEMMs.
  parallel_for(0, cols, [&](int64_t j) {
    float dg = static_cast<float>(dgp[j]), db = static_cast<float>(dbp[j]);
    for (int64_t r = 0; r < rows; ++r) {
      const float dyv = static_cast<float>(dyp[r * cols + j]);
      const float xhat =
          (static_cast<float>(xp[r * cols + j]) - mp[r]) * rp[r];
      dg += dyv * xhat;
      db += dyv;
    }
    dgp[j] = T(dg);
    dbp[j] = T(db);
  });
}

simgpu::KernelDesc desc(std::string name, int64_t br, int64_t bw, double flops, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = br;
  d.bytes_written = bw;
  d.flops = flops;
  d.mem_efficiency = eff;
  return d;
}

void check_ln_args(const Tensor& x, const Tensor& gamma, const Tensor& beta, const Tensor& y,
                   const Tensor& mean, const Tensor& rstd) {
  const auto [rows, cols] = shape_of(x);
  LS2_CHECK_EQ(gamma.numel(), cols);
  LS2_CHECK_EQ(beta.numel(), cols);
  LS2_CHECK_EQ(y.numel(), x.numel());
  LS2_CHECK_EQ(mean.numel(), rows);
  LS2_CHECK_EQ(rstd.numel(), rows);
  LS2_CHECK(mean.dtype() == DType::kF32 && rstd.dtype() == DType::kF32)
      << "row stats must be f32";
}

}  // namespace

void layernorm_fw(KernelContext& kc, Impl impl, const Tensor& x, const Tensor& gamma,
                  const Tensor& beta, const Tensor& y, const Tensor& mean, const Tensor& rstd,
                  float eps) {
  check_ln_args(x, gamma, beta, y, mean, rstd);
  const auto [rows, cols] = shape_of(x);
  const int64_t xb = static_cast<int64_t>(x.bytes());
  const int64_t rowsb = rows * 4;
  const double red_flops = static_cast<double>(rows) * cols * 2.0;

  switch (impl) {
    case Impl::kTorch:
    case Impl::kTensorFlow: {
      const double eff =
          impl == Impl::kTorch ? torch_red_eff(rows, cols) : tf_red_eff(rows, cols);
      const char* sys = impl_name(impl);
      // Three dependent launches: mean, variance (re-reads x), normalise.
      kc.dev.launch(desc(std::string(sys) + ".ln_mean", xb, rowsb, red_flops, eff),
                    [&, eps] {
                      LS2_DISPATCH_FLOAT(x.dtype(), T,
                                         compute_stats<T>(x, mean, rstd, eps));
                    });
      // Variance pass: statistics were already produced by the shared body
      // above; this launch charges the extra traffic the framework pays.
      kc.dev.launch(desc(std::string(sys) + ".ln_var", xb + rowsb, rowsb, red_flops, eff),
                    nullptr);
      kc.dev.launch(
          desc(std::string(sys) + ".ln_norm",
               xb + 2 * rowsb + static_cast<int64_t>(gamma.bytes() + beta.bytes()),
               static_cast<int64_t>(y.bytes()), static_cast<double>(rows) * cols * 2.0,
               0.70),
          [&] {
            LS2_DISPATCH_FLOAT(x.dtype(), T,
                               compute_normalize<T>(x, gamma, beta, y, mean, rstd));
          });
      break;
    }
    case Impl::kDeepSpeed:
    case Impl::kLS2: {
      const double eff =
          impl == Impl::kDeepSpeed ? deepspeed_eff(rows, cols) : ls2_red_eff(rows, cols);
      const char* name = impl == Impl::kDeepSpeed ? "deepspeed.layernorm_fw"
                                                  : "ls2.layernorm_fw";
      // Single launch, single pass over x.
      kc.dev.launch(
          desc(name, xb + static_cast<int64_t>(gamma.bytes() + beta.bytes()),
               static_cast<int64_t>(y.bytes()) + 2 * rowsb, red_flops * 2.0, eff),
          [&, eps] {
            LS2_DISPATCH_FLOAT(x.dtype(), T, {
              compute_stats<T>(x, mean, rstd, eps);
              compute_normalize<T>(x, gamma, beta, y, mean, rstd);
            });
          });
      break;
    }
  }
}

void layernorm_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& x,
                  const Tensor& gamma, const Tensor& mean, const Tensor& rstd,
                  const Tensor& dx, const Tensor& dgamma, const Tensor& dbeta,
                  const Tensor* residual_grad, bool fold_param_grads) {
  const auto [rows, cols] = shape_of(x);
  LS2_CHECK(!fold_param_grads || impl == Impl::kLS2 || impl == Impl::kDeepSpeed)
      << impl_name(impl) << " has no fused dx kernel to fold dgamma/dbeta into";
  if (residual_grad) {
    LS2_CHECK_EQ(residual_grad->numel(), x.numel());
  }
  LS2_CHECK_EQ(dy.numel(), x.numel());
  LS2_CHECK_EQ(dx.numel(), x.numel());
  LS2_CHECK_EQ(dgamma.numel(), cols);
  LS2_CHECK_EQ(dbeta.numel(), cols);
  const int64_t xb = static_cast<int64_t>(x.bytes());
  const int64_t rowsb = rows * 4;
  const double red_flops = static_cast<double>(rows) * cols * 4.0;

  switch (impl) {
    case Impl::kTorch:
    case Impl::kTensorFlow: {
      const double eff =
          impl == Impl::kTorch ? torch_red_eff(rows, cols) : tf_red_eff(rows, cols);
      const char* sys = impl_name(impl);
      // Framework decomposition: wdy temp, two *sequential* row reductions,
      // dx elementwise, then dgamma and dbeta separately. The real math runs
      // once in the dx launch; the others charge their traffic.
      kc.dev.launch(desc(std::string(sys) + ".ln_bw_wdy",
                         static_cast<int64_t>(dy.bytes() + gamma.bytes()), xb, 0, 0.70),
                    nullptr);
      kc.dev.launch(desc(std::string(sys) + ".ln_bw_sum1", xb, rowsb, red_flops / 2, eff),
                    nullptr);
      kc.dev.launch(desc(std::string(sys) + ".ln_bw_sum2", 2 * xb + 2 * rowsb, rowsb,
                         red_flops / 2, eff),
                    nullptr);
      kc.dev.launch(desc(std::string(sys) + ".ln_bw_dx", 2 * xb + 4 * rowsb,
                         static_cast<int64_t>(dx.bytes()),
                         static_cast<double>(rows) * cols * 6.0, 0.70),
                    [&, residual_grad] {
                      LS2_DISPATCH_FLOAT(x.dtype(), T,
                                         compute_dx<T>(dy, x, gamma, mean, rstd, dx,
                                                       residual_grad));
                    });
      if (residual_grad) {
        // Frameworks add the residual gradient in a separate kernel.
        kc.dev.launch(desc(std::string(sys) + ".ln_bw_residual_add",
                           2 * static_cast<int64_t>(dx.bytes()),
                           static_cast<int64_t>(dx.bytes()),
                           static_cast<double>(rows) * cols, 0.70),
                      nullptr);
      }
      kc.dev.launch(desc(std::string(sys) + ".ln_bw_dgamma", 2 * xb + 2 * rowsb,
                         static_cast<int64_t>(dgamma.bytes()), red_flops / 2,
                         reduction_efficiency(0.5, cols, rows, 32)),
                    [&] {
                      LS2_DISPATCH_FLOAT(x.dtype(), T,
                                         compute_param_grads<T>(dy, x, mean, rstd, dgamma,
                                                                dbeta));
                    });
      kc.dev.launch(desc(std::string(sys) + ".ln_bw_dbeta", xb,
                         static_cast<int64_t>(dbeta.bytes()), red_flops / 4,
                         reduction_efficiency(0.5, cols, rows, 32)),
                    nullptr);
      break;
    }
    case Impl::kDeepSpeed:
    case Impl::kLS2: {
      const double eff =
          impl == Impl::kDeepSpeed ? deepspeed_eff(rows, cols) : ls2_red_eff(rows, cols);
      const std::string sys = impl == Impl::kDeepSpeed ? "deepspeed" : "ls2";
      // dx in one launch: S1 and S2 accumulate in parallel (§IV-B); the
      // residual gradient add of Fig. 8 is fused in as well.
      simgpu::KernelDesc dx_desc =
          desc(sys + ".layernorm_bw_dx",
               static_cast<int64_t>(dy.bytes() + gamma.bytes()) + xb + 2 * rowsb +
                   (residual_grad ? static_cast<int64_t>(residual_grad->bytes()) : 0),
               static_cast<int64_t>(dx.bytes()), red_flops + 6.0 * rows * cols, eff);
      const int64_t param_bytes = static_cast<int64_t>(dgamma.bytes() + dbeta.bytes());
      if (fold_param_grads) {
        // dgamma and dbeta ride in the dx launch: dy and x are already on
        // chip, so the fold adds its writes and flops and the column tile's
        // occupancy, not a second read.
        dx_desc.bytes_written += param_bytes;
        dx_desc.flops += red_flops;
        dx_desc.mem_efficiency = std::min(eff, column_fold_efficiency(kc, eff, cols, rows));
        kc.dev.launch(dx_desc, [&, residual_grad] {
          LS2_DISPATCH_FLOAT(x.dtype(), T, {
            compute_dx<T>(dy, x, gamma, mean, rstd, dx, residual_grad);
            compute_param_grads<T>(dy, x, mean, rstd, dgamma, dbeta);
          });
        });
        break;
      }
      kc.dev.launch(dx_desc, [&, residual_grad] {
        LS2_DISPATCH_FLOAT(x.dtype(), T,
                           compute_dx<T>(dy, x, gamma, mean, rstd, dx, residual_grad));
      });
      // dgamma and dbeta fused into one column-reduction launch.
      kc.dev.launch(desc(sys + ".layernorm_bw_dparam",
                         static_cast<int64_t>(dy.bytes()) + xb + 2 * rowsb, param_bytes,
                         red_flops, reduction_efficiency(0.8, cols, rows, 32)),
                    [&] {
                      LS2_DISPATCH_FLOAT(x.dtype(), T,
                                         compute_param_grads<T>(dy, x, mean, rstd, dgamma,
                                                                dbeta));
                    });
      break;
    }
  }
}

}  // namespace ls2::kern
