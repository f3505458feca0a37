#include "kernels/layernorm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "simgpu/profile.h"

namespace ls2::kern {
namespace {

class LayerNormTest : public ::testing::Test {
 protected:
  LayerNormTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}

  Tensor randn(Shape shape, uint64_t stream, float stddev = 1.0f) {
    Tensor t = Tensor::empty(std::move(shape), DType::kF32);
    kc.rng.fill_normal(t, 2000 + stream, 0.0f, stddev);
    return t;
  }

  // Textbook two-pass reference.
  static void reference_ln(const std::vector<float>& x, const std::vector<float>& g,
                           const std::vector<float>& b, int64_t rows, int64_t cols,
                           std::vector<float>& y) {
    y.resize(x.size());
    for (int64_t r = 0; r < rows; ++r) {
      double mu = 0;
      for (int64_t j = 0; j < cols; ++j) mu += x[r * cols + j];
      mu /= cols;
      double var = 0;
      for (int64_t j = 0; j < cols; ++j) {
        const double d = x[r * cols + j] - mu;
        var += d * d;
      }
      var /= cols;
      const double rstd = 1.0 / std::sqrt(var + 1e-5);
      for (int64_t j = 0; j < cols; ++j)
        y[r * cols + j] = static_cast<float>((x[r * cols + j] - mu) * rstd * g[j] + b[j]);
    }
  }

  simgpu::Device dev;
  KernelContext kc;
};

TEST_F(LayerNormTest, ForwardMatchesTwoPassReference) {
  const int64_t rows = 64, cols = 128;
  Tensor x = randn({rows, cols}, 1, 3.0f);
  Tensor gamma = randn({cols}, 2);
  Tensor beta = randn({cols}, 3);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);
  layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, mean, rstd);

  std::vector<float> expect;
  reference_ln(x.to_vector(), gamma.to_vector(), beta.to_vector(), rows, cols, expect);
  const auto yv = y.to_vector();
  for (size_t i = 0; i < expect.size(); ++i) EXPECT_NEAR(yv[i], expect[i], 2e-4f) << i;
}

TEST_F(LayerNormTest, SinglePassStatsStableWithLargeMean) {
  // sigma^2 = E[x^2]-E[x]^2 is cancellation-prone; f64 accumulation must
  // keep it accurate when mean >> stddev.
  const int64_t rows = 8, cols = 512;
  Tensor x = randn({rows, cols}, 1, 0.1f);
  {
    auto v = x.to_vector();
    for (float& f : v) f += 100.0f;
    x.copy_from(v);
  }
  Tensor gamma = Tensor::empty({cols}, DType::kF32);
  gamma.fill_(1.0f);
  Tensor beta = Tensor::zeros({cols}, DType::kF32);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);
  layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, mean, rstd);
  // Output must be standardised: mean ~ 0, var ~ 1 per row.
  const auto yv = y.to_vector();
  for (int64_t r = 0; r < rows; ++r) {
    double m = 0, v2 = 0;
    for (int64_t j = 0; j < cols; ++j) m += yv[r * cols + j];
    m /= cols;
    for (int64_t j = 0; j < cols; ++j) {
      const double d = yv[r * cols + j] - m;
      v2 += d * d;
    }
    v2 /= cols;
    EXPECT_NEAR(m, 0.0, 1e-3);
    EXPECT_NEAR(v2, 1.0, 1e-2);
  }
}

TEST_F(LayerNormTest, AllImplsNumericallyIdentical) {
  const int64_t rows = 32, cols = 64;
  Tensor x = randn({rows, cols}, 1);
  Tensor gamma = randn({cols}, 2);
  Tensor beta = randn({cols}, 3);
  std::vector<float> first;
  for (Impl impl : {Impl::kTorch, Impl::kTensorFlow, Impl::kDeepSpeed, Impl::kLS2}) {
    Tensor y = Tensor::empty({rows, cols}, DType::kF32);
    Tensor mean = Tensor::empty({rows}, DType::kF32);
    Tensor rstd = Tensor::empty({rows}, DType::kF32);
    layernorm_fw(kc, impl, x, gamma, beta, y, mean, rstd);
    if (first.empty()) {
      first = y.to_vector();
    } else {
      EXPECT_EQ(y.to_vector(), first) << impl_name(impl);
    }
  }
}

TEST_F(LayerNormTest, BackwardMatchesFiniteDifference) {
  const int64_t rows = 4, cols = 16;
  Tensor x = randn({rows, cols}, 1);
  Tensor gamma = randn({cols}, 2);
  Tensor beta = randn({cols}, 3);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);
  layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, mean, rstd);

  Tensor dy = randn({rows, cols}, 4);
  Tensor dx = Tensor::empty({rows, cols}, DType::kF32);
  // Param-grad kernels accumulate into their destination (microbatch
  // gradient accumulation), so grad outputs start zeroed.
  Tensor dgamma = Tensor::zeros({cols}, DType::kF32);
  Tensor dbeta = Tensor::zeros({cols}, DType::kF32);
  layernorm_bw(kc, Impl::kLS2, dy, x, gamma, mean, rstd, dx, dgamma, dbeta);

  // Scalar objective: sum(dy * LN(x)).
  auto objective = [&](const std::vector<float>& xv) {
    std::vector<float> yv;
    reference_ln(xv, gamma.to_vector(), beta.to_vector(), rows, cols, yv);
    const auto dyv = dy.to_vector();
    double s = 0;
    for (size_t i = 0; i < yv.size(); ++i) s += static_cast<double>(dyv[i]) * yv[i];
    return s;
  };
  const float h = 1e-3f;
  auto xv = x.to_vector();
  const auto dxv = dx.to_vector();
  for (int64_t i = 0; i < rows * cols; i += 7) {  // sample positions
    auto xp = xv, xm = xv;
    xp[static_cast<size_t>(i)] += h;
    xm[static_cast<size_t>(i)] -= h;
    const double numeric = (objective(xp) - objective(xm)) / (2 * h);
    EXPECT_NEAR(dxv[static_cast<size_t>(i)], numeric, 5e-3) << "i=" << i;
  }

  // Parameter grads against direct formulas.
  const auto dyv = dy.to_vector();
  const auto xvv = x.to_vector();
  const auto mv = mean.to_vector();
  const auto rv = rstd.to_vector();
  const auto dgv = dgamma.to_vector();
  const auto dbv = dbeta.to_vector();
  for (int64_t j = 0; j < cols; ++j) {
    double dg = 0, db = 0;
    for (int64_t r = 0; r < rows; ++r) {
      const double xhat = (xvv[r * cols + j] - mv[r]) * rv[r];
      dg += dyv[r * cols + j] * xhat;
      db += dyv[r * cols + j];
    }
    EXPECT_NEAR(dgv[j], dg, 1e-3) << j;
    EXPECT_NEAR(dbv[j], db, 1e-3) << j;
  }
}

TEST_F(LayerNormTest, BackwardImplsAgree) {
  const int64_t rows = 16, cols = 32;
  Tensor x = randn({rows, cols}, 1);
  Tensor gamma = randn({cols}, 2);
  Tensor beta = randn({cols}, 3);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);
  layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, mean, rstd);
  Tensor dy = randn({rows, cols}, 4);

  std::vector<float> dx_first, dg_first;
  for (Impl impl : {Impl::kTorch, Impl::kLS2}) {
    Tensor dx = Tensor::empty({rows, cols}, DType::kF32);
    Tensor dg = Tensor::zeros({cols}, DType::kF32);
    Tensor db = Tensor::zeros({cols}, DType::kF32);
    layernorm_bw(kc, impl, dy, x, gamma, mean, rstd, dx, dg, db);
    if (dx_first.empty()) {
      dx_first = dx.to_vector();
      dg_first = dg.to_vector();
    } else {
      EXPECT_EQ(dx.to_vector(), dx_first);
      EXPECT_EQ(dg.to_vector(), dg_first);
    }
  }
}

std::vector<uint8_t> bytes_of(const Tensor& t) {
  const auto* p = static_cast<const uint8_t*>(t.raw());
  return std::vector<uint8_t>(p, p + t.bytes());
}

// LightSeq2 folds dgamma/dbeta into the dx launch (Policy::fold_bias_grad):
// one ls2.layernorm_bw_dx launch whose dx, dgamma and dbeta are bitwise the
// two-launch path's, in FP32 and FP16, with and without the residual
// gradient, from nonzero accumulators and over two row slices that continue
// one chain (a pipeline-parallel microbatch pair). Its bytes are the dx
// launch's plus the dgamma/dbeta bytes written.
TEST_F(LayerNormTest, FoldedParamGradsMatchTwoLaunches) {
  const int64_t rows = 24, cols = 40, split = 10;
  for (DType dt : {DType::kF32, DType::kF16}) {
    auto cast = [&](const Tensor& t) {
      return Tensor::from_vector(t.to_vector(), t.shape(), dt);
    };
    const Tensor x = cast(randn({rows, cols}, 1, 2.0f));
    const Tensor gamma = cast(randn({cols}, 2));
    const Tensor beta = cast(randn({cols}, 3));
    const Tensor dy = cast(randn({rows, cols}, 4));
    const Tensor residual = cast(randn({rows, cols}, 5));
    const Tensor dg0 = cast(randn({cols}, 6)), db0 = cast(randn({cols}, 7));
    Tensor y = Tensor::empty({rows, cols}, dt);
    Tensor mean = Tensor::empty({rows}, DType::kF32);
    Tensor rstd = Tensor::empty({rows}, DType::kF32);
    layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, mean, rstd);

    for (bool with_residual : {false, true}) {
      const std::string where =
          std::string(dtype_name(dt)) + (with_residual ? " with residual" : "");
      const Tensor* res = with_residual ? &residual : nullptr;
      struct Grads {
        Tensor dx, dg, db;
      };
      auto fresh = [&] { return Grads{Tensor::empty({rows, cols}, dt), cast(dg0), cast(db0)}; };

      Grads two = fresh();
      dev.reset();
      layernorm_bw(kc, Impl::kLS2, dy, x, gamma, mean, rstd, two.dx, two.dg, two.db, res);
      ASSERT_EQ(dev.stats().launches, 2) << where;
      const int64_t dx_bytes = dev.per_kernel().at("ls2.layernorm_bw_dx").bytes;

      Grads one = fresh();
      dev.reset();
      layernorm_bw(kc, Impl::kLS2, dy, x, gamma, mean, rstd, one.dx, one.dg, one.db, res,
                   /*fold_param_grads=*/true);
      EXPECT_EQ(bytes_of(one.dx), bytes_of(two.dx)) << where;
      EXPECT_EQ(bytes_of(one.dg), bytes_of(two.dg)) << where;
      EXPECT_EQ(bytes_of(one.db), bytes_of(two.db)) << where;
      EXPECT_EQ(dev.stats().launches, 1) << where;
      ASSERT_EQ(dev.per_kernel().size(), 1u) << where;
      EXPECT_EQ(dev.per_kernel().count("ls2.layernorm_bw_dx"), 1u) << where;
      EXPECT_EQ(dev.stats().bytes_moved,
                dx_bytes + static_cast<int64_t>(one.dg.bytes() + one.db.bytes()))
          << where;

      // Microbatches: the second slice continues the first's dgamma/dbeta,
      // as the two-launch path's does. In FP32 the chain is the full
      // batch's; FP16 destinations round between the slices.
      auto microbatches = [&](bool fold) {
        Grads mb = fresh();
        for (auto [lo, hi] : {std::pair<int64_t, int64_t>{0, split}, {split, rows}}) {
          const Tensor mb_res = with_residual ? residual.slice(lo, hi) : Tensor{};
          layernorm_bw(kc, Impl::kLS2, dy.slice(lo, hi), x.slice(lo, hi), gamma,
                       mean.slice(lo, hi), rstd.slice(lo, hi), mb.dx.slice(lo, hi), mb.dg,
                       mb.db, with_residual ? &mb_res : nullptr, fold);
        }
        return mb;
      };
      const Grads mb_one = microbatches(true), mb_two = microbatches(false);
      EXPECT_EQ(bytes_of(mb_one.dx), bytes_of(two.dx)) << where;
      EXPECT_EQ(bytes_of(mb_one.dg), bytes_of(mb_two.dg)) << where;
      EXPECT_EQ(bytes_of(mb_one.db), bytes_of(mb_two.db)) << where;
      if (dt == DType::kF32) {
        EXPECT_EQ(bytes_of(mb_one.dg), bytes_of(two.dg)) << where;
        EXPECT_EQ(bytes_of(mb_one.db), bytes_of(two.db)) << where;
      }
    }
  }
}

// The fold is LightSeq2's, not the kernel family's: DeepSpeed's impl keeps
// its two launches, and the unfused impls have no dx kernel to fold into.
// At 4096 x 512 FP16 on the A100 profile the folded launch advances the
// clock less than the two launches together.
TEST_F(LayerNormTest, FoldedParamGradsCostLessThanTwoLaunches) {
  simgpu::Device mdev(simgpu::a100(), simgpu::ExecMode::kModelOnly);
  KernelContext mkc(mdev, nullptr, 0);
  const int64_t rows = 4096, cols = 512;
  const Tensor x = Tensor::empty({rows, cols}, DType::kF16);
  const Tensor dy = Tensor::empty({rows, cols}, DType::kF16);
  const Tensor dx = Tensor::empty({rows, cols}, DType::kF16);
  const Tensor gamma = Tensor::empty({cols}, DType::kF16);
  const Tensor dg = Tensor::empty({cols}, DType::kF16), db = Tensor::empty({cols}, DType::kF16);
  const Tensor mean = Tensor::empty({rows}, DType::kF32);
  const Tensor rstd = Tensor::empty({rows}, DType::kF32);
  auto clock_of = [&](Impl impl, bool fold) {
    mdev.reset();
    layernorm_bw(mkc, impl, dy, x, gamma, mean, rstd, dx, dg, db, &dy, fold);
    return mdev.clock_us();
  };
  const double folded = clock_of(Impl::kLS2, true);
  EXPECT_EQ(mdev.stats().launches, 1);
  EXPECT_LT(folded, clock_of(Impl::kLS2, false));
  clock_of(Impl::kDeepSpeed, false);
  EXPECT_EQ(mdev.per_kernel().at("deepspeed.layernorm_bw_dparam").launches, 1);
  EXPECT_THROW(clock_of(Impl::kTorch, true), Error);
}

TEST_F(LayerNormTest, LaunchCounts) {
  const int64_t rows = 256, cols = 1024;
  Tensor x = randn({rows, cols}, 1);
  Tensor gamma = randn({cols}, 2);
  Tensor beta = randn({cols}, 3);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);

  dev.reset();
  layernorm_fw(kc, Impl::kTorch, x, gamma, beta, y, mean, rstd);
  EXPECT_EQ(dev.stats().launches, 3);

  dev.reset();
  layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, mean, rstd);
  EXPECT_EQ(dev.stats().launches, 1);
}

// Fig. 16's qualitative shape: LightSeq2 ~4x over the PyTorch decomposition
// across sizes; DeepSpeed competitive at small sizes but collapsing at large
// ones (below PyTorch).
TEST_F(LayerNormTest, ModeledSpeedupShapes) {
  simgpu::Device mdev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  KernelContext mkc(mdev, nullptr, 0);
  auto time_of = [&](Impl impl, int64_t rows, int64_t cols) {
    Tensor x = Tensor::empty({rows, cols}, DType::kF16);
    Tensor g = Tensor::empty({cols}, DType::kF16);
    Tensor b = Tensor::empty({cols}, DType::kF16);
    Tensor y = Tensor::empty({rows, cols}, DType::kF16);
    Tensor mean = Tensor::empty({rows}, DType::kF32);
    Tensor rstd = Tensor::empty({rows}, DType::kF32);
    mdev.reset();
    layernorm_fw(mkc, impl, x, g, b, y, mean, rstd);
    return mdev.clock_us();
  };

  // Small and large shapes from Fig. 16's grid.
  for (auto [rows, cols] : {std::pair<int64_t, int64_t>{512, 256},
                            {4096, 1024},
                            {8192, 8192}}) {
    const double torch_t = time_of(Impl::kTorch, rows, cols);
    const double ls2_t = time_of(Impl::kLS2, rows, cols);
    EXPECT_GT(torch_t / ls2_t, 2.5) << rows << "x" << cols;
    EXPECT_LT(torch_t / ls2_t, 8.0) << rows << "x" << cols;
  }
  // DeepSpeed beats PyTorch at small shapes, loses at very large ones.
  EXPECT_LT(time_of(Impl::kDeepSpeed, 512, 256), time_of(Impl::kTorch, 512, 256));
  EXPECT_GT(time_of(Impl::kDeepSpeed, 8192, 8192), time_of(Impl::kTorch, 8192, 8192));
}

TEST_F(LayerNormTest, ShapeValidation) {
  Tensor x = randn({4, 8}, 1);
  Tensor gamma = randn({8}, 2);
  Tensor beta = randn({8}, 3);
  Tensor y = Tensor::empty({4, 8}, DType::kF32);
  Tensor mean = Tensor::empty({4}, DType::kF32);
  Tensor rstd = Tensor::empty({4}, DType::kF32);
  Tensor bad_gamma = randn({7}, 4);
  EXPECT_THROW(layernorm_fw(kc, Impl::kLS2, x, bad_gamma, beta, y, mean, rstd), Error);
  Tensor bad_stats = Tensor::empty({4}, DType::kF16);
  EXPECT_THROW(layernorm_fw(kc, Impl::kLS2, x, gamma, beta, y, bad_stats, rstd), Error);
}

}  // namespace
}  // namespace ls2::kern
