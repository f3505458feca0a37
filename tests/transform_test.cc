#include "kernels/transform.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "simgpu/profile.h"

namespace ls2::kern {
namespace {

class TransformTest : public ::testing::Test {
 protected:
  TransformTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}

  Tensor randn(Shape shape, uint64_t stream, DType dt = DType::kF32) {
    Tensor t = Tensor::empty(std::move(shape), dt);
    kc.rng.fill_normal(t, 4000 + stream, 0.0f, 1.0f);
    return t;
  }

  simgpu::Device dev;
  KernelContext kc;
};

TEST_F(TransformTest, QkvSplitLayout) {
  const int64_t B = 2, L = 3, N = 2, D = 4;
  const int64_t H = N * D;
  Tensor x = randn({B, L, 3 * H}, 1);
  Tensor bias = Tensor::zeros({3 * H}, DType::kF32);
  Tensor q = Tensor::empty({B, N, L, D}, DType::kF32);
  Tensor k = Tensor::empty({B, N, L, D}, DType::kF32);
  Tensor v = Tensor::empty({B, N, L, D}, DType::kF32);
  bias_split_transpose_fw(kc, Impl::kLS2, x, bias, {q, k, v});

  const auto xv = x.to_vector();
  const auto qv = q.to_vector(), kv = k.to_vector(), vv = v.to_vector();
  for (int64_t b = 0; b < B; ++b)
    for (int64_t l = 0; l < L; ++l)
      for (int64_t n = 0; n < N; ++n)
        for (int64_t d = 0; d < D; ++d) {
          const int64_t src = (b * L + l) * 3 * H;
          const int64_t dst = ((b * N + n) * L + l) * D + d;
          EXPECT_EQ(qv[dst], xv[src + 0 * H + n * D + d]);
          EXPECT_EQ(kv[dst], xv[src + 1 * H + n * D + d]);
          EXPECT_EQ(vv[dst], xv[src + 2 * H + n * D + d]);
        }
}

TEST_F(TransformTest, FusedBiasEqualsBaseline) {
  const int64_t B = 2, L = 5, N = 4, D = 8;
  const int64_t H = N * D;
  Tensor x = randn({B, L, 3 * H}, 1);
  Tensor x_copy = Tensor::empty({B, L, 3 * H}, DType::kF32);
  x_copy.copy_(x);
  Tensor bias = randn({3 * H}, 2);

  std::vector<Tensor> fused_outs, base_outs;
  for (int g = 0; g < 3; ++g) {
    fused_outs.push_back(Tensor::empty({B, N, L, D}, DType::kF32));
    base_outs.push_back(Tensor::empty({B, N, L, D}, DType::kF32));
  }
  bias_split_transpose_fw(kc, Impl::kLS2, x, bias, fused_outs);
  bias_split_transpose_fw(kc, Impl::kTorch, x_copy, bias, base_outs);
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(fused_outs[static_cast<size_t>(g)].to_vector(),
              base_outs[static_cast<size_t>(g)].to_vector())
        << "group " << g;
  }
}

TEST_F(TransformTest, SplitMergeRoundTrip) {
  const int64_t B = 2, L = 4, N = 3, D = 5;
  const int64_t H = N * D;
  Tensor x = randn({B, L, 2 * H}, 1);
  Tensor bias = Tensor::zeros({2 * H}, DType::kF32);
  Tensor a = Tensor::empty({B, N, L, D}, DType::kF32);
  Tensor b = Tensor::empty({B, N, L, D}, DType::kF32);
  bias_split_transpose_fw(kc, Impl::kLS2, x, bias, {a, b});
  Tensor back = Tensor::empty({B, L, 2 * H}, DType::kF32);
  split_transpose_bw(kc, Impl::kLS2, {a, b}, back);
  EXPECT_EQ(back.to_vector(), x.to_vector());
}

TEST_F(TransformTest, MergeHeadsRoundTrip) {
  const int64_t B = 2, L = 6, N = 2, D = 3;
  Tensor x = randn({B, N, L, D}, 1);
  Tensor y = Tensor::empty({B, L, N * D}, DType::kF32);
  merge_heads_fw(kc, Impl::kLS2, x, y);
  Tensor back = Tensor::empty({B, N, L, D}, DType::kF32);
  merge_heads_bw(kc, Impl::kLS2, y, back);
  EXPECT_EQ(back.to_vector(), x.to_vector());
}

TEST_F(TransformTest, LaunchCounts) {
  const int64_t B = 4, L = 16, N = 8, D = 32;
  const int64_t H = N * D;
  Tensor x = randn({B, L, 3 * H}, 1);
  Tensor bias = Tensor::zeros({3 * H}, DType::kF32);
  std::vector<Tensor> outs;
  for (int g = 0; g < 3; ++g) outs.push_back(Tensor::empty({B, N, L, D}, DType::kF32));

  dev.reset();
  bias_split_transpose_fw(kc, Impl::kLS2, x, bias, outs);
  EXPECT_EQ(dev.stats().launches, 1);

  dev.reset();
  bias_split_transpose_fw(kc, Impl::kTorch, x, bias, outs);
  EXPECT_EQ(dev.stats().launches, 4);  // bias + 3 transposes
}

TEST_F(TransformTest, ShapeMismatchThrows) {
  Tensor x = randn({2, 3, 12}, 1);
  Tensor bias = Tensor::zeros({12}, DType::kF32);
  Tensor bad = Tensor::empty({2, 2, 3, 2}, DType::kF32);  // wrong total elems
  EXPECT_THROW(bias_split_transpose_fw(kc, Impl::kLS2, x, bias, {bad}), Error);
}

}  // namespace
}  // namespace ls2::kern
