#include <gtest/gtest.h>

#include <cmath>

#include "kernels/criterion.h"
#include "kernels/embedding.h"
#include "simgpu/profile.h"

namespace ls2::kern {
namespace {

class EmbeddingTest : public ::testing::Test {
 protected:
  EmbeddingTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}
  simgpu::Device dev;
  KernelContext kc;
};

TEST_F(EmbeddingTest, SinusoidalTableProperties) {
  Tensor pos = Tensor::empty({64, 32}, DType::kF32);
  init_sinusoidal_positions(pos);
  const auto v = pos.to_vector();
  // Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
  for (int64_t j = 0; j < 32; ++j) {
    EXPECT_NEAR(v[j], (j % 2 == 0) ? 0.0f : 1.0f, 1e-6) << j;
  }
  for (float f : v) {
    ASSERT_GE(f, -1.0f);
    ASSERT_LE(f, 1.0f);
  }
}

TEST_F(EmbeddingTest, ForwardMatchesManual) {
  const int64_t B = 2, L = 4, V = 10, H = 8;
  Tensor ids = Tensor::from_vector({1, 2, 3, 4, 5, 6, 7, 8}, {B, L}, DType::kI32);
  Tensor emb = Tensor::empty({V, H}, DType::kF32);
  kc.rng.fill_normal(emb, 1, 0.0f, 1.0f);
  Tensor pos = Tensor::empty({L, H}, DType::kF32);
  init_sinusoidal_positions(pos);
  Tensor y = Tensor::empty({B, L, H}, DType::kF32);
  Tensor mask = Tensor::empty({B, L, H}, DType::kU8);
  const float scale = std::sqrt(static_cast<float>(H));
  embedding_fw(kc, Impl::kLS2, ids, emb, pos, y, mask, scale, 0.0f, 1);

  const auto ev = emb.to_vector(), pv = pos.to_vector(), yv = y.to_vector(),
             iv = ids.to_vector();
  for (int64_t t = 0; t < B * L; ++t) {
    const int w = static_cast<int>(iv[t]);
    const int64_t l = t % L;
    for (int64_t j = 0; j < H; ++j) {
      EXPECT_NEAR(yv[t * H + j], scale * ev[w * H + j] + pv[l * H + j], 1e-5);
    }
  }
}

TEST_F(EmbeddingTest, PaddingTokensProduceZeros) {
  const int64_t B = 1, L = 3, V = 5, H = 4;
  Tensor ids = Tensor::from_vector({1, 0, 2}, {B, L}, DType::kI32);
  Tensor emb = Tensor::empty({V, H}, DType::kF32);
  kc.rng.fill_normal(emb, 1, 0.0f, 1.0f);
  Tensor pos = Tensor::empty({L, H}, DType::kF32);
  init_sinusoidal_positions(pos);
  Tensor y = Tensor::empty({B, L, H}, DType::kF32);
  Tensor mask = Tensor::empty({B, L, H}, DType::kU8);
  embedding_fw(kc, Impl::kLS2, ids, emb, pos, y, mask, 1.0f, 0.0f, 1, /*pad_id=*/0);
  const auto yv = y.to_vector();
  for (int64_t j = 0; j < H; ++j) EXPECT_EQ(yv[H + j], 0.0f);  // middle token is pad
}

TEST_F(EmbeddingTest, BackwardAggregatesRepeatedTokens) {
  // Same token in several positions: grads must sum (the paper's sparse
  // atomicAdd aggregation).
  const int64_t B = 1, L = 4, V = 6, H = 4;
  Tensor ids = Tensor::from_vector({2, 5, 2, 2}, {B, L}, DType::kI32);
  Tensor mask = Tensor::empty({B, L, H}, DType::kU8);
  mask.fill_(1.0f);  // no dropout
  Tensor dy = Tensor::empty({B, L, H}, DType::kF32);
  kc.rng.fill_normal(dy, 3, 0.0f, 1.0f);
  Tensor d_emb = Tensor::empty({V, H}, DType::kF32);
  const float scale = 2.0f;
  embedding_bw(kc, Impl::kLS2, dy, ids, mask, d_emb, scale, 0.0f, /*pad_id=*/-1);

  const auto dyv = dy.to_vector();
  const auto dev_ = d_emb.to_vector();
  for (int64_t j = 0; j < H; ++j) {
    const float expect2 = scale * (dyv[0 * H + j] + dyv[2 * H + j] + dyv[3 * H + j]);
    EXPECT_NEAR(dev_[2 * H + j], expect2, 1e-4);
    EXPECT_NEAR(dev_[5 * H + j], scale * dyv[1 * H + j], 1e-5);
    EXPECT_EQ(dev_[0 * H + j], 0.0f);  // untouched rows zeroed
  }
}

TEST_F(EmbeddingTest, DropoutMaskAppliedInBackward) {
  const int64_t B = 1, L = 2, V = 4, H = 4;
  Tensor ids = Tensor::from_vector({1, 1}, {B, L}, DType::kI32);
  Tensor emb = Tensor::empty({V, H}, DType::kF32);
  kc.rng.fill_normal(emb, 1, 0.0f, 1.0f);
  Tensor pos = Tensor::empty({L, H}, DType::kF32);
  init_sinusoidal_positions(pos);
  Tensor y = Tensor::empty({B, L, H}, DType::kF32);
  Tensor mask = Tensor::empty({B, L, H}, DType::kU8);
  const float p = 0.5f;
  embedding_fw(kc, Impl::kLS2, ids, emb, pos, y, mask, 1.0f, p, 5);
  Tensor dy = Tensor::empty({B, L, H}, DType::kF32);
  dy.fill_(1.0f);
  Tensor d_emb = Tensor::empty({V, H}, DType::kF32);
  embedding_bw(kc, Impl::kLS2, dy, ids, mask, d_emb, 1.0f, p);
  const auto mv = mask.to_vector();
  const auto dv = d_emb.to_vector();
  for (int64_t j = 0; j < H; ++j) {
    const float expect = (mv[j] + mv[H + j]) / (1 - p);
    EXPECT_NEAR(dv[1 * H + j], expect, 1e-5);
  }
}

TEST_F(EmbeddingTest, FusedAndBaselineIdentical) {
  const int64_t B = 2, L = 8, V = 50, H = 16;
  Tensor ids = Tensor::empty({B, L}, DType::kI32);
  kc.rng.fill_randint(ids, 9, 1, V);
  Tensor emb = Tensor::empty({V, H}, DType::kF32);
  kc.rng.fill_normal(emb, 1, 0.0f, 0.5f);
  Tensor pos = Tensor::empty({L, H}, DType::kF32);
  init_sinusoidal_positions(pos);
  Tensor y1 = Tensor::empty({B, L, H}, DType::kF32);
  Tensor y2 = Tensor::empty({B, L, H}, DType::kF32);
  Tensor m1 = Tensor::empty({B, L, H}, DType::kU8);
  Tensor m2 = Tensor::empty({B, L, H}, DType::kU8);
  embedding_fw(kc, Impl::kLS2, ids, emb, pos, y1, m1, 4.0f, 0.1f, 77);
  embedding_fw(kc, Impl::kTorch, ids, emb, pos, y2, m2, 4.0f, 0.1f, 77);
  EXPECT_EQ(y1.to_vector(), y2.to_vector());

  Tensor dy = Tensor::empty({B, L, H}, DType::kF32);
  kc.rng.fill_normal(dy, 3, 0.0f, 1.0f);
  Tensor d1 = Tensor::empty({V, H}, DType::kF32);
  Tensor d2 = Tensor::empty({V, H}, DType::kF32);
  embedding_bw(kc, Impl::kLS2, dy, ids, m1, d1, 4.0f, 0.1f);
  embedding_bw(kc, Impl::kTorch, dy, ids, m2, d2, 4.0f, 0.1f);
  EXPECT_EQ(d1.to_vector(), d2.to_vector());
}

TEST_F(EmbeddingTest, LaunchCountsFavorFusion) {
  const int64_t B = 8, L = 32, V = 100, H = 64;
  Tensor ids = Tensor::empty({B, L}, DType::kI32);
  kc.rng.fill_randint(ids, 9, 1, V);
  Tensor emb = Tensor::zeros({V, H}, DType::kF32);
  Tensor pos = Tensor::zeros({L, H}, DType::kF32);
  Tensor y = Tensor::empty({B, L, H}, DType::kF32);
  Tensor mask = Tensor::empty({B, L, H}, DType::kU8);
  dev.reset();
  embedding_fw(kc, Impl::kLS2, ids, emb, pos, y, mask, 1.0f, 0.1f, 1);
  EXPECT_EQ(dev.stats().launches, 1);
  dev.reset();
  embedding_fw(kc, Impl::kTorch, ids, emb, pos, y, mask, 1.0f, 0.1f, 1);
  EXPECT_EQ(dev.stats().launches, 4);
}

class CriterionTest : public ::testing::TestWithParam<float> {
 protected:
  CriterionTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}
  simgpu::Device dev;
  KernelContext kc;
};

TEST_P(CriterionTest, LossMatchesReference) {
  const float alpha = GetParam();
  const int64_t rows = 12, V = 23;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 1, 0.0f, 2.0f);
  Tensor targets = Tensor::empty({rows}, DType::kI32);
  kc.rng.fill_randint(targets, 2, 0, V);
  Tensor loss = Tensor::empty({rows}, DType::kF32);
  Tensor stats = Tensor::empty({rows, 2}, DType::kF32);
  ls_cross_entropy_fw(kc, Impl::kLS2, logits, targets, loss, stats, alpha);

  const auto lv = logits.to_vector(), lossv = loss.to_vector(), tv = targets.to_vector();
  for (int64_t r = 0; r < rows; ++r) {
    double mx = -1e30;
    for (int64_t j = 0; j < V; ++j) mx = std::max(mx, (double)lv[r * V + j]);
    double z = 0;
    for (int64_t j = 0; j < V; ++j) z += std::exp(lv[r * V + j] - mx);
    double expect = 0;
    const int k = static_cast<int>(tv[r]);
    for (int64_t j = 0; j < V; ++j) {
      const double logq = lv[r * V + j] - mx - std::log(z);
      const double p = (j == k ? 1.0 - alpha + alpha / V : alpha / V);
      expect -= p * logq;
    }
    EXPECT_NEAR(lossv[r], expect, 1e-4) << "row " << r;
  }
}

TEST_P(CriterionTest, GradientMatchesClosedForm) {
  const float alpha = GetParam();
  const int64_t rows = 6, V = 17;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 1, 0.0f, 1.5f);
  Tensor targets = Tensor::empty({rows}, DType::kI32);
  kc.rng.fill_randint(targets, 2, 0, V);
  Tensor loss = Tensor::empty({rows}, DType::kF32);
  Tensor stats = Tensor::empty({rows, 2}, DType::kF32);
  Tensor dlogits = Tensor::empty({rows, V}, DType::kF32);
  ls_cross_entropy_fw(kc, Impl::kLS2, logits, targets, loss, stats, alpha, -1, dlogits, 1.0f);

  // Finite differences on the summed loss.
  auto loss_sum = [&](const std::vector<float>& lvv) {
    Tensor lg = Tensor::from_vector(lvv, {rows, V}, DType::kF32);
    Tensor lo = Tensor::empty({rows}, DType::kF32);
    Tensor st = Tensor::empty({rows, 2}, DType::kF32);
    ls_cross_entropy_fw(kc, Impl::kLS2, lg, targets, lo, st, alpha);
    double s = 0;
    for (float f : lo.to_vector()) s += f;
    return s;
  };
  const auto lv = logits.to_vector();
  const auto dv = dlogits.to_vector();
  const float h = 1e-3f;
  for (int64_t i = 0; i < rows * V; i += 5) {
    auto lp = lv, lm = lv;
    lp[static_cast<size_t>(i)] += h;
    lm[static_cast<size_t>(i)] -= h;
    const double numeric = (loss_sum(lp) - loss_sum(lm)) / (2 * h);
    EXPECT_NEAR(dv[static_cast<size_t>(i)], numeric, 2e-3) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, CriterionTest, ::testing::Values(0.0f, 0.1f, 0.3f),
                         [](const auto& info) {
                           return "alpha_" + std::to_string(static_cast<int>(
                                                 info.param * 100));
                         });

TEST(CriterionExtraTest, IgnoredRowsContributeNothing) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  KernelContext kc(dev, nullptr, 1);
  const int64_t rows = 4, V = 9;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 1, 0.0f, 1.0f);
  Tensor targets = Tensor::from_vector({3, -1, 5, -1}, {rows}, DType::kI32);
  Tensor loss = Tensor::empty({rows}, DType::kF32);
  Tensor stats = Tensor::empty({rows, 2}, DType::kF32);
  Tensor dlogits = Tensor::empty({rows, V}, DType::kF32);
  ls_cross_entropy_fw(kc, Impl::kLS2, logits, targets, loss, stats, 0.1f, -1, dlogits, 1.0f);
  EXPECT_EQ(loss.to_vector()[1], 0.0f);
  EXPECT_EQ(loss.to_vector()[3], 0.0f);
  EXPECT_GT(loss.to_vector()[0], 0.0f);

  const auto dv = dlogits.to_vector();
  for (int64_t j = 0; j < V; ++j) {
    EXPECT_EQ(dv[1 * V + j], 0.0f);
    EXPECT_EQ(dv[3 * V + j], 0.0f);
  }
}

TEST(CriterionExtraTest, BaselineAndFusedIdentical) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  KernelContext kc(dev, nullptr, 1);
  const int64_t rows = 8, V = 31;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 1, 0.0f, 1.0f);
  Tensor targets = Tensor::empty({rows}, DType::kI32);
  kc.rng.fill_randint(targets, 2, 0, V);
  Tensor l1 = Tensor::empty({rows}, DType::kF32), l2 = Tensor::empty({rows}, DType::kF32);
  Tensor s1 = Tensor::empty({rows, 2}, DType::kF32), s2 = Tensor::empty({rows, 2}, DType::kF32);
  Tensor d1 = Tensor::empty({rows, V}, DType::kF32), d2 = Tensor::empty({rows, V}, DType::kF32);
  ls_cross_entropy_fw(kc, Impl::kLS2, logits, targets, l1, s1, 0.1f, -1, d1, 0.5f);
  ls_cross_entropy_fw(kc, Impl::kTorch, logits, targets, l2, s2, 0.1f);
  EXPECT_EQ(l1.to_vector(), l2.to_vector());
  ls_cross_entropy_bw(kc, Impl::kTorch, logits, targets, s2, d2, 0.1f, 0.5f);
  EXPECT_EQ(d1.to_vector(), d2.to_vector());
}

std::vector<uint8_t> bytes_of(const Tensor& t) {
  const auto* p = static_cast<const uint8_t*>(t.raw());
  return std::vector<uint8_t>(p, p + t.bytes());
}

// LightSeq2 writes the criterion's gradient from its forward launch, in
// place over the logits: the gradient is bitwise the baseline backward's at
// the same scale (zero on ignored rows), the loss and (max, log Z) are
// bitwise the forward's without a gradient, and the one launch's bytes are
// the forward's plus the gradient's. A baseline impl throws when handed a
// gradient destination, and LightSeq2 has no separate backward launch.
TEST(CriterionExtraTest, ForwardLaunchWritesGradientInPlace) {
  const int64_t rows = 12, V = 37;
  const float alpha = 0.1f, scale = 0.375f;
  for (DType dt : {DType::kF32, DType::kF16}) {
    simgpu::Device dev(simgpu::a100(), simgpu::ExecMode::kExecute);
    KernelContext kc(dev, nullptr, 1);
    Tensor src = Tensor::empty({rows, V}, DType::kF32);
    kc.rng.fill_normal(src, 1, 0.0f, 2.0f);
    const Tensor logits = Tensor::from_vector(src.to_vector(), {rows, V}, dt);
    Tensor targets = Tensor::empty({rows}, DType::kI32);
    kc.rng.fill_randint(targets, 2, 0, V);
    targets.data<int32_t>()[3] = -1;
    targets.data<int32_t>()[7] = -1;
    auto row_tensors = [&] {
      return std::pair{Tensor::empty({rows}, DType::kF32), Tensor::empty({rows, 2}, DType::kF32)};
    };

    // The forward alone, and the baseline's backward from its statistics.
    const auto [loss_ref, stats_ref] = row_tensors();
    dev.reset();
    ls_cross_entropy_fw(kc, Impl::kLS2, logits, targets, loss_ref, stats_ref, alpha);
    const int64_t fw_bytes = dev.stats().bytes_moved;
    const double fw_flops = dev.stats().flops;
    Tensor grad_ref = Tensor::empty({rows, V}, dt);
    ls_cross_entropy_bw(kc, Impl::kTorch, logits, targets, stats_ref, grad_ref, alpha, scale);

    // The forward launch writing the gradient over its logits.
    Tensor inplace = Tensor::from_vector(src.to_vector(), {rows, V}, dt);
    const auto [loss, stats] = row_tensors();
    dev.reset();
    ls_cross_entropy_fw(kc, Impl::kLS2, inplace, targets, loss, stats, alpha, -1, inplace,
                        scale);
    const std::string name = dtype_name(dt);
    EXPECT_EQ(bytes_of(inplace), bytes_of(grad_ref)) << name;
    EXPECT_EQ(bytes_of(loss), bytes_of(loss_ref)) << name;
    EXPECT_EQ(bytes_of(stats), bytes_of(stats_ref)) << name;
    EXPECT_EQ(dev.stats().launches, 1) << name;
    EXPECT_EQ(dev.per_kernel().at("ls2.criterion_fw").launches, 1) << name;
    EXPECT_EQ(dev.stats().bytes_moved, fw_bytes + static_cast<int64_t>(inplace.bytes()))
        << name;
    EXPECT_EQ(dev.stats().flops, fw_flops + 3.0 * rows * V) << name;

    EXPECT_THROW(ls_cross_entropy_fw(kc, Impl::kTorch, logits, targets, loss, stats, alpha, -1,
                                     grad_ref, scale),
                 Error)
        << name;
    EXPECT_THROW(ls_cross_entropy_bw(kc, Impl::kLS2, logits, targets, stats, grad_ref, alpha,
                                     scale),
                 Error)
        << name;
  }
}

TEST(CriterionExtraTest, FusedAvoidsVocabularyWideTemp) {
  // The baseline materialises a [rows, V] probability tensor; the fused
  // kernel must not move those extra bytes.
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  KernelContext kc(dev, nullptr, 1);
  const int64_t rows = 4096, V = 32768;
  Tensor logits = Tensor::empty({rows, V}, DType::kF16);
  Tensor targets = Tensor::zeros({rows}, DType::kI32);
  Tensor loss = Tensor::empty({rows}, DType::kF32);
  Tensor stats = Tensor::empty({rows, 2}, DType::kF32);
  dev.reset();
  ls_cross_entropy_fw(kc, Impl::kLS2, logits, targets, loss, stats, 0.1f);
  const int64_t fused_bytes = dev.stats().bytes_moved;
  const int64_t fused_launches = dev.stats().launches;
  dev.reset();
  ls_cross_entropy_fw(kc, Impl::kTorch, logits, targets, loss, stats, 0.1f);
  EXPECT_LT(fused_bytes * 3, dev.stats().bytes_moved);
  EXPECT_LT(fused_launches, dev.stats().launches);
}

TEST(CriterionExtraTest, ReduceSum) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  KernelContext kc(dev, nullptr, 1);
  Tensor x = Tensor::from_vector({1.5f, -0.5f, 2.0f}, {3}, DType::kF32);
  Tensor out = Tensor::empty({1}, DType::kF32);
  reduce_sum(kc, x, out);
  EXPECT_FLOAT_EQ(out.item(), 3.0f);
}

}  // namespace
}  // namespace ls2::kern
