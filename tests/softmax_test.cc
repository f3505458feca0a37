#include "kernels/softmax.h"

#include <gtest/gtest.h>

#include <cmath>

#include "simgpu/profile.h"

namespace ls2::kern {
namespace {

class SoftmaxTest : public ::testing::Test {
 protected:
  SoftmaxTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}

  Tensor randn(Shape shape, uint64_t stream) {
    Tensor t = Tensor::empty(std::move(shape), DType::kF32);
    kc.rng.fill_normal(t, 3000 + stream, 0.0f, 2.0f);
    return t;
  }

  /// Plain row softmax: the unmasked attention softmax over a [1, 1, rows,
  /// cols] view.
  void row_softmax(Impl impl, const Tensor& x, const Tensor& y) {
    const Shape flat = x.shape().flatten_2d();
    attn_softmax_fw(kc, impl, x.view({1, 1, flat[0], flat[1]}),
                    y.view({1, 1, flat[0], flat[1]}), /*causal=*/false, nullptr);
  }

  simgpu::Device dev;
  KernelContext kc;
};

TEST_F(SoftmaxTest, RowsSumToOne) {
  const int64_t rows = 33, cols = 57;
  Tensor x = randn({rows, cols}, 1);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  row_softmax(Impl::kLS2, x, y);
  const auto yv = y.to_vector();
  for (int64_t r = 0; r < rows; ++r) {
    double s = 0;
    for (int64_t j = 0; j < cols; ++j) {
      s += yv[r * cols + j];
      ASSERT_GE(yv[r * cols + j], 0.0f);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST_F(SoftmaxTest, StableUnderLargeLogits) {
  Tensor x = Tensor::from_vector({1000.0f, 1001.0f, 999.0f}, {1, 3}, DType::kF32);
  Tensor y = Tensor::empty({1, 3}, DType::kF32);
  row_softmax(Impl::kLS2, x, y);
  const auto yv = y.to_vector();
  for (float v : yv) EXPECT_FALSE(std::isnan(v));
  EXPECT_GT(yv[1], yv[0]);
  EXPECT_GT(yv[0], yv[2]);
}

TEST_F(SoftmaxTest, ImplsIdentical) {
  const int64_t rows = 16, cols = 40;
  Tensor x = randn({rows, cols}, 1);
  std::vector<float> first;
  for (Impl impl : {Impl::kTorch, Impl::kTensorFlow, Impl::kDeepSpeed, Impl::kLS2}) {
    Tensor y = Tensor::empty({rows, cols}, DType::kF32);
    row_softmax(impl, x, y);
    if (first.empty()) {
      first = y.to_vector();
    } else {
      EXPECT_EQ(y.to_vector(), first) << impl_name(impl);
    }
  }
}

TEST_F(SoftmaxTest, BackwardMatchesFiniteDifference) {
  const int64_t rows = 3, cols = 11;
  Tensor x = randn({rows, cols}, 1);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  row_softmax(Impl::kLS2, x, y);
  Tensor dy = randn({rows, cols}, 2);
  Tensor dx = Tensor::empty({rows, cols}, DType::kF32);
  softmax_bw(kc, Impl::kLS2, dy, y, dx);

  auto objective = [&](const std::vector<float>& xv) {
    double s = 0;
    const auto dyv = dy.to_vector();
    for (int64_t r = 0; r < rows; ++r) {
      double mx = -1e30;
      for (int64_t j = 0; j < cols; ++j) mx = std::max(mx, (double)xv[r * cols + j]);
      double z = 0;
      for (int64_t j = 0; j < cols; ++j) z += std::exp(xv[r * cols + j] - mx);
      for (int64_t j = 0; j < cols; ++j)
        s += dyv[r * cols + j] * std::exp(xv[r * cols + j] - mx) / z;
    }
    return s;
  };
  const float h = 1e-3f;
  auto xv = x.to_vector();
  const auto dxv = dx.to_vector();
  for (int64_t i = 0; i < rows * cols; ++i) {
    auto xp = xv, xm = xv;
    xp[static_cast<size_t>(i)] += h;
    xm[static_cast<size_t>(i)] -= h;
    const double numeric = (objective(xp) - objective(xm)) / (2 * h);
    EXPECT_NEAR(dxv[static_cast<size_t>(i)], numeric, 2e-3) << i;
  }
}

TEST_F(SoftmaxTest, CausalMaskZerosFuture) {
  const int64_t B = 2, N = 2, L = 5;
  Tensor x = randn({B, N, L, L}, 1);
  Tensor y = Tensor::empty({B, N, L, L}, DType::kF32);
  attn_softmax_fw(kc, Impl::kLS2, x, y, /*causal=*/true, nullptr);
  const auto yv = y.to_vector();
  for (int64_t r = 0; r < B * N * L; ++r) {
    const int64_t q = r % L;
    double s = 0;
    for (int64_t k = 0; k < L; ++k) {
      const float v = yv[r * L + k];
      if (k > q) {
        EXPECT_EQ(v, 0.0f) << "future position unmasked";
      }
      s += v;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST_F(SoftmaxTest, KeyLengthMaskZerosPadding) {
  const int64_t B = 3, N = 1, Lq = 4, Lk = 6;
  Tensor x = randn({B, N, Lq, Lk}, 1);
  Tensor lens = Tensor::from_vector({6.0f, 3.0f, 1.0f}, {B}, DType::kI32);
  Tensor y = Tensor::empty({B, N, Lq, Lk}, DType::kF32);
  attn_softmax_fw(kc, Impl::kLS2, x, y, /*causal=*/false, &lens);
  const auto yv = y.to_vector();
  const int valid[3] = {6, 3, 1};
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t q = 0; q < Lq; ++q) {
      double s = 0;
      for (int64_t k = 0; k < Lk; ++k) {
        const float v = yv[((b * N) * Lq + q) * Lk + k];
        if (k >= valid[b]) EXPECT_EQ(v, 0.0f);
        s += v;
      }
      EXPECT_NEAR(s, 1.0, 1e-5);
    }
  }
}

TEST_F(SoftmaxTest, MaskedBaselineAndFusedAgree) {
  const int64_t B = 2, N = 3, Lq = 7, Lk = 7;
  Tensor x = randn({B, N, Lq, Lk}, 1);
  Tensor lens = Tensor::from_vector({7.0f, 4.0f}, {B}, DType::kI32);
  Tensor y1 = Tensor::empty({B, N, Lq, Lk}, DType::kF32);
  Tensor y2 = Tensor::empty({B, N, Lq, Lk}, DType::kF32);
  attn_softmax_fw(kc, Impl::kTorch, x, y1, true, &lens);
  attn_softmax_fw(kc, Impl::kLS2, x, y2, true, &lens);
  EXPECT_EQ(y1.to_vector(), y2.to_vector());
}

TEST_F(SoftmaxTest, BaselineChargesMaskedFillLaunch) {
  const int64_t B = 2, N = 2, L = 8;
  Tensor x = randn({B, N, L, L}, 1);
  Tensor y = Tensor::empty({B, N, L, L}, DType::kF32);
  dev.reset();
  attn_softmax_fw(kc, Impl::kTorch, x, y, true, nullptr);
  EXPECT_EQ(dev.stats().launches, 2);  // masked_fill + generic softmax kernel
  dev.reset();
  attn_softmax_fw(kc, Impl::kLS2, x, y, true, nullptr);
  EXPECT_EQ(dev.stats().launches, 1);  // mask applied inline
}

TEST(SoftmaxTunerTest, WideRowsGetBiggerTeams) {
  const SoftmaxConfig narrow = tune_softmax(1 << 20, 16);
  const SoftmaxConfig wide = tune_softmax(1 << 10, 4096);
  EXPECT_LT(narrow.threads_per_row, wide.threads_per_row);
}

TEST(SoftmaxTunerTest, TunedBeatsOrMatchesEveryFixedTemplate) {
  for (int64_t rows : {256, 4096, 1 << 16}) {
    for (int64_t cols : {8, 64, 512, 4096}) {
      const SoftmaxConfig best = tune_softmax(rows, cols);
      const double best_eff = softmax_config_efficiency(best, rows, cols);
      for (const SoftmaxConfig& c : softmax_candidates()) {
        EXPECT_GE(best_eff + 1e-12, softmax_config_efficiency(c, rows, cols))
            << rows << "x" << cols << " vs " << c.tag;
      }
    }
  }
}

TEST(SoftmaxTunerTest, CacheIsStable) {
  const SoftmaxConfig a = tune_softmax(1000, 100);
  const SoftmaxConfig b = tune_softmax(1000, 100);
  EXPECT_EQ(a.threads_per_row, b.threads_per_row);
}

TEST(SoftmaxTunerTest, ResetTunerRetunesDeterministically) {
  const SoftmaxConfig a = tune_softmax(1 << 12, 256);
  reset_softmax_tuner();
  const SoftmaxConfig b = tune_softmax(1 << 12, 256);
  EXPECT_EQ(a.threads_per_row, b.threads_per_row);
  EXPECT_STREQ(a.tag, b.tag);
}

// The cache is keyed by the device's thread-residency capacity: a bench
// sweeping profiles must get each profile's own winner, never a stale one
// tuned for another device. Verified against a fresh argmax per profile.
TEST(SoftmaxTunerTest, CacheIsKeyedByDeviceIdentity) {
  reset_softmax_tuner();
  const double devices[] = {163840.0, 8 * 163840.0};
  for (int64_t rows : {256, 4096}) {
    for (int64_t cols : {32, 512}) {
      // Warm the cache with the first device, then query all of them; each
      // answer must equal the winner recomputed from scratch for THAT
      // device.
      (void)tune_softmax(rows, cols, devices[0]);
      for (double dt : devices) {
        const SoftmaxConfig got = tune_softmax(rows, cols, dt);
        SoftmaxConfig want = softmax_candidates().front();
        double want_eff = -1;
        for (const SoftmaxConfig& c : softmax_candidates()) {
          const double eff = softmax_config_efficiency(c, rows, cols, dt);
          if (eff > want_eff) {
            want_eff = eff;
            want = c;
          }
        }
        EXPECT_EQ(got.threads_per_row, want.threads_per_row)
            << rows << "x" << cols << " on device_threads " << dt;
      }
    }
  }
  // And the occupancy term really does shift the winner between devices for
  // occupancy-limited shapes: a device with 8x the residency prefers teams
  // at least as large (more threads needed to fill it).
  const SoftmaxConfig small_dev = tune_softmax(256, 512, devices[0]);
  const SoftmaxConfig big_dev = tune_softmax(256, 512, devices[1]);
  EXPECT_GE(big_dev.threads_per_row, small_dev.threads_per_row);
}

// Serving shapes: the single-query decode softmax is rows = batch*heads
// (tiny) by cols = L_past (long) — the opposite corner from training's
// million-row score tensors. The per-profile tuner cache must hand each
// device its own winner on these shapes too (the serving engine hits this
// every decode step).
TEST(SoftmaxTunerTest, DecodeShapesGetPerProfileWinners) {
  reset_softmax_tuner();
  const double devices[] = {simgpu::v100().resident_threads,
                            simgpu::a100().resident_threads};
  // rows = slots * heads for slot counts 4..64; cols = cached lengths.
  for (int64_t rows : {8, 64, 512}) {
    for (int64_t cols : {128, 512, 1024}) {
      (void)tune_softmax(rows, cols, devices[0]);  // warm with the first device
      for (double dt : devices) {
        const SoftmaxConfig got = tune_softmax(rows, cols, dt);
        SoftmaxConfig want = softmax_candidates().front();
        double want_eff = -1;
        for (const SoftmaxConfig& c : softmax_candidates()) {
          const double eff = softmax_config_efficiency(c, rows, cols, dt);
          if (eff > want_eff) {
            want_eff = eff;
            want = c;
          }
        }
        EXPECT_EQ(got.threads_per_row, want.threads_per_row)
            << "decode shape " << rows << "x" << cols << " on device_threads " << dt;
      }
    }
  }
  // Long cached rows with few queries want big cooperative teams — decode
  // must not inherit the narrow-row training template.
  EXPECT_GE(tune_softmax(8, 1024).threads_per_row, tune_softmax(1 << 20, 16).threads_per_row);
}

// The decode-step softmax ([S, N, 1, Lmax] + attend_lens) must equal the
// last valid row of the full causal softmax — the kernel-level statement of
// incremental-decode parity.
TEST_F(SoftmaxTest, SingleQueryDecodeRowMatchesFullCausalRow) {
  const int64_t B = 3, N = 2, L = 6, Lmax = 9;
  Tensor full = randn({B, N, L, L}, 1);
  Tensor full_y = Tensor::empty({B, N, L, L}, DType::kF32);
  attn_softmax_fw(kc, Impl::kLS2, full, full_y, /*causal=*/true, nullptr);

  // Decode view: each sequence's scores against its L cached keys, padded
  // out to the static cache width Lmax (tail is garbage the mask hides).
  Tensor dec = Tensor::empty({B, N, 1, Lmax}, DType::kF32);
  {
    const auto fv = full.to_vector();
    auto dv = std::vector<float>(static_cast<size_t>(B * N * Lmax), 1e30f);
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < N; ++n)
        for (int64_t k = 0; k < L; ++k)
          dv[static_cast<size_t>((b * N + n) * Lmax + k)] =
              fv[static_cast<size_t>((((b * N + n) * L) + (L - 1)) * L + k)];
    dec.copy_from(dv);
  }
  Tensor lens = Tensor::from_vector({static_cast<float>(L), static_cast<float>(L),
                                     static_cast<float>(L)},
                                    {B}, DType::kI32);
  Tensor dec_y = Tensor::empty({B, N, 1, Lmax}, DType::kF32);
  attn_softmax_fw(kc, Impl::kLS2, dec, dec_y, /*causal=*/false, &lens);

  const auto fy = full_y.to_vector();
  const auto dy = dec_y.to_vector();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t n = 0; n < N; ++n) {
      for (int64_t k = 0; k < Lmax; ++k) {
        const float got = dy[static_cast<size_t>((b * N + n) * Lmax + k)];
        if (k < L) {
          EXPECT_EQ(got, fy[static_cast<size_t>((((b * N + n) * L) + (L - 1)) * L + k)]);
        } else {
          EXPECT_EQ(got, 0.0f) << "masked cache tail must be exactly zero";
        }
      }
    }
  }
}

// Fig. 17(b): LightSeq2's speedup over the baseline grows with sequence
// length (shape-specialised templates).
TEST(SoftmaxModelTest, SpeedupGrowsWithSequenceLength) {
  simgpu::Device mdev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  KernelContext mkc(mdev, nullptr, 0);
  auto speedup = [&](int64_t batch, int64_t len) {
    Tensor x = Tensor::empty({batch, 16, len, len}, DType::kF16);
    Tensor y = Tensor::empty({batch, 16, len, len}, DType::kF16);
    mdev.reset();
    attn_softmax_fw(mkc, Impl::kTorch, x, y, false, nullptr);
    const double torch_t = mdev.clock_us();
    mdev.reset();
    attn_softmax_fw(mkc, Impl::kLS2, x, y, false, nullptr);
    return torch_t / mdev.clock_us();
  };
  const double small = speedup(256, 32);
  const double large = speedup(32, 256);
  EXPECT_GT(large, small);
  EXPECT_GT(large, 1.5);
}

}  // namespace
}  // namespace ls2::kern
