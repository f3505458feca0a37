#include "kernels/elementwise.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kernels/dropout.h"
#include "simgpu/profile.h"

namespace ls2::kern {
namespace {

class ElementwiseTest : public ::testing::Test {
 protected:
  ElementwiseTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}

  Tensor randn(Shape shape, uint64_t stream, DType dt = DType::kF32) {
    Tensor t = Tensor::empty(std::move(shape), dt);
    kc.rng.fill_normal(t, 1000 + stream, 0.0f, 1.0f);
    return t;
  }

  simgpu::Device dev;
  KernelContext kc;
};

// The paper's core correctness claim: fused kernels compute exactly what the
// unfused composition computes.
TEST_F(ElementwiseTest, FusedBiasReluDropoutMatchesComposition) {
  const int64_t rows = 64, cols = 96;
  Tensor x = randn({rows, cols}, 1);
  Tensor bias = randn({cols}, 2);
  const float p = 0.1f;
  const uint64_t stream = 7;

  Tensor y_fused = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  fused::bias_relu_dropout_fw(kc, x, bias, y_fused, mask, p, stream);

  // Composition: add_bias -> relu -> dropout (same rng stream).
  Tensor t1 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor t2 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor y_ref = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask_ref = Tensor::empty({rows, cols}, DType::kU8);
  baseline::add_bias(kc, x, bias, t1);
  baseline::relu_fw(kc, t1, t2);
  dropout_fw(kc, Impl::kTorch, t2, y_ref, mask_ref, p, stream);

  EXPECT_EQ(y_fused.to_vector(), y_ref.to_vector());
  EXPECT_EQ(mask.to_vector(), mask_ref.to_vector());
}

TEST_F(ElementwiseTest, FusedBiasReluDropoutBackward) {
  const int64_t rows = 32, cols = 64;
  Tensor x = randn({rows, cols}, 1);
  Tensor bias = randn({cols}, 2);
  const float p = 0.2f;
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  fused::bias_relu_dropout_fw(kc, x, bias, y, mask, p, 3);

  Tensor dy = randn({rows, cols}, 4);
  Tensor dx = Tensor::empty({rows, cols}, DType::kF32);
  fused::bias_relu_dropout_bw(kc, dy, mask, x, bias, dx, p);

  // Reference: dx = dy * mask/(1-p) * 1[x+b > 0].
  const auto xv = x.to_vector(), bv = bias.to_vector(), dyv = dy.to_vector(),
             mv = mask.to_vector(), dxv = dx.to_vector();
  for (int64_t i = 0; i < rows * cols; ++i) {
    const float pre = xv[i] + bv[i % cols];
    const float expect = mv[i] ? dyv[i] / (1 - p) * (pre > 0 ? 1.0f : 0.0f) : 0.0f;
    ASSERT_FLOAT_EQ(dxv[i], expect) << i;
  }
}

TEST_F(ElementwiseTest, FusedBiasDropoutResidualMatchesComposition) {
  const int64_t rows = 48, cols = 80;
  Tensor x = randn({rows, cols}, 1);
  Tensor bias = randn({cols}, 2);
  Tensor res = randn({rows, cols}, 3);
  const float p = 0.15f;
  const uint64_t stream = 9;

  Tensor y_fused = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  fused::bias_dropout_residual_fw(kc, x, bias, res, y_fused, mask, p, stream);

  Tensor t1 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor t2 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask_ref = Tensor::empty({rows, cols}, DType::kU8);
  Tensor y_ref = Tensor::empty({rows, cols}, DType::kF32);
  baseline::add_bias(kc, x, bias, t1);
  dropout_fw(kc, Impl::kTorch, t1, t2, mask_ref, p, stream);
  baseline::add(kc, t2, res, y_ref);

  EXPECT_EQ(y_fused.to_vector(), y_ref.to_vector());

  // Backward: dx = dy*mask/(1-p).
  Tensor dy = randn({rows, cols}, 5);
  Tensor dx = Tensor::empty({rows, cols}, DType::kF32);
  fused::bias_dropout_residual_bw(kc, dy, mask, dx, p);
  Tensor dx_ref = Tensor::empty({rows, cols}, DType::kF32);
  dropout_bw(kc, Impl::kTorch, dy, mask_ref, dx_ref, p);
  EXPECT_EQ(dx.to_vector(), dx_ref.to_vector());
}

TEST_F(ElementwiseTest, GeluBackwardMatchesFiniteDifference) {
  const int64_t n = 64;
  Tensor x = randn({n}, 1);
  Tensor dy = Tensor::empty({n}, DType::kF32);
  dy.fill_(1.0f);
  Tensor dx = Tensor::empty({n}, DType::kF32);
  baseline::gelu_bw(kc, dy, x, dx);

  const float h = 1e-3f;
  const auto xv = x.to_vector();
  const auto dxv = dx.to_vector();
  for (int64_t i = 0; i < n; ++i) {
    Tensor xp = Tensor::from_vector({xv[i] + h}, {1}, DType::kF32);
    Tensor xm = Tensor::from_vector({xv[i] - h}, {1}, DType::kF32);
    Tensor yp = Tensor::empty({1}, DType::kF32), ym = Tensor::empty({1}, DType::kF32);
    baseline::gelu_fw(kc, xp, yp);
    baseline::gelu_fw(kc, xm, ym);
    const float numeric = (yp.item() - ym.item()) / (2 * h);
    EXPECT_NEAR(dxv[i], numeric, 2e-3f) << "x=" << xv[i];
  }
}

TEST_F(ElementwiseTest, FusedGeluDropoutMatchesComposition) {
  const int64_t rows = 16, cols = 32;
  Tensor x = randn({rows, cols}, 1);
  Tensor bias = randn({cols}, 2);
  Tensor y_fused = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  fused::bias_gelu_dropout_fw(kc, x, bias, y_fused, mask, 0.1f, 11);

  Tensor t1 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor t2 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor y_ref = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mref = Tensor::empty({rows, cols}, DType::kU8);
  baseline::add_bias(kc, x, bias, t1);
  baseline::gelu_fw(kc, t1, t2);
  dropout_fw(kc, Impl::kTorch, t2, y_ref, mref, 0.1f, 11);
  EXPECT_EQ(y_fused.to_vector(), y_ref.to_vector());
}

TEST_F(ElementwiseTest, BiasGradColumnSums) {
  const int64_t rows = 100, cols = 7;
  Tensor dx = randn({rows, cols}, 1);
  Tensor dbias = Tensor::zeros({cols}, DType::kF32);
  bias_grad(kc, dx, dbias);
  const auto dxv = dx.to_vector();
  const auto dbv = dbias.to_vector();
  for (int64_t j = 0; j < cols; ++j) {
    double s = 0;
    for (int64_t i = 0; i < rows; ++i) s += dxv[i * cols + j];
    EXPECT_NEAR(dbv[j], s, 1e-4) << j;
  }
}

// Each fused backward kernel can reduce its bias gradient in the launch
// that produces dx (LightSeq2's d_bias_dropout_residual / d_bias_act_dropout).
// Run as two row slices — the pipeline-parallel microbatch chain — from a
// non-zero dbias, the fold must leave dx bitwise unchanged, give bitwise the
// dbias bias_grad gives over that dx, and cost one launch per slice, charged
// less than the producer followed by bias_grad.
class BiasGradFoldTest : public ElementwiseTest,
                         public ::testing::WithParamInterface<DType> {};

TEST_P(BiasGradFoldTest, FusedBackwardFoldsBiasGradBitwise) {
  const DType dt = GetParam();
  const int64_t rows = 96, cols = 80, split = 40;
  const float p = 0.1f;
  Tensor x = randn({rows, cols}, 1, dt);
  Tensor bias = randn({cols}, 2, dt);
  Tensor dy = randn({rows, cols}, 3, dt);
  Tensor y = Tensor::empty({rows, cols}, dt);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  fused::bias_relu_dropout_fw(kc, x, bias, y, mask, p, 5);
  const Tensor db0 = randn({cols}, 4, dt);  // the accumulation starts non-zero

  using Producer = std::function<void(int64_t, int64_t, const Tensor&, const Tensor&)>;
  const std::vector<std::pair<std::string, Producer>> producers = {
      {"bias_dropout_residual_bw",
       [&](int64_t r0, int64_t r1, const Tensor& dx, const Tensor& db) {
         fused::bias_dropout_residual_bw(kc, dy.slice(r0, r1), mask.slice(r0, r1),
                                         dx.slice(r0, r1), p, db);
       }},
      {"bias_relu_dropout_bw",
       [&](int64_t r0, int64_t r1, const Tensor& dx, const Tensor& db) {
         fused::bias_relu_dropout_bw(kc, dy.slice(r0, r1), mask.slice(r0, r1),
                                     x.slice(r0, r1), bias, dx.slice(r0, r1), p, db);
       }},
      {"bias_gelu_dropout_bw",
       [&](int64_t r0, int64_t r1, const Tensor& dx, const Tensor& db) {
         fused::bias_gelu_dropout_bw(kc, dy.slice(r0, r1), mask.slice(r0, r1),
                                     x.slice(r0, r1), bias, dx.slice(r0, r1), p, db);
       }},
  };
  auto charged = [&] { return dev.stats().busy_us + dev.stats().overhead_us; };
  for (const auto& [name, run] : producers) {
    SCOPED_TRACE(name);
    // Unfolded: the producer, then bias_grad over the slice it wrote.
    Tensor dx_ref = Tensor::empty({rows, cols}, dt);
    Tensor db_ref = Tensor::empty({cols}, dt);
    db_ref.copy_(db0);
    dev.reset();
    for (const auto [r0, r1] : {std::pair<int64_t, int64_t>{0, split}, {split, rows}}) {
      run(r0, r1, dx_ref, Tensor());
      bias_grad(kc, dx_ref.slice(r0, r1), db_ref);
    }
    const int64_t ref_launches = dev.stats().launches;
    const double ref_us = charged();

    Tensor dx = Tensor::empty({rows, cols}, dt);
    Tensor db = Tensor::empty({cols}, dt);
    db.copy_(db0);
    dev.reset();
    run(0, split, dx, db);
    run(split, rows, dx, db);
    EXPECT_EQ(std::memcmp(dx.raw(), dx_ref.raw(), dx.bytes()), 0) << "dx";
    EXPECT_EQ(std::memcmp(db.raw(), db_ref.raw(), db.bytes()), 0) << "dbias";
    EXPECT_EQ(dev.stats().launches, 2);
    EXPECT_EQ(ref_launches, 4);
    EXPECT_LT(charged(), ref_us);

    // In FP32 the slices chain into the whole batch's reduction (FP16 rounds
    // the destination between slices, bias_grad's own chain included).
    if (dt != DType::kF32) continue;
    Tensor db_whole = Tensor::empty({cols}, dt);
    db_whole.copy_(db0);
    bias_grad(kc, dx, db_whole);
    EXPECT_EQ(std::memcmp(db.raw(), db_whole.raw(), db.bytes()), 0) << "whole batch";
  }
}

INSTANTIATE_TEST_SUITE_P(Dtypes, BiasGradFoldTest, ::testing::Values(DType::kF32, DType::kF16),
                         [](const auto& info) {
                           return std::string(info.param == DType::kF32 ? "F32" : "F16");
                         });

// Given the GEMM that produces its input, each bias chain runs as that
// GEMM's epilogue. Against the GEMM launch followed by the standalone chain
// (under the 1/tp charge scale the layers put it under on a shard), the
// fused launch must give bitwise the same GEMM output, chain outputs, mask
// and folded dbias, be ONE launch under the GEMM's tag, move the chain's
// bytes less its re-read of the GEMM output (and, in place, the GEMM's
// second store of it), and advance the clock less. The shapes are
// compute-bound in FP32 on the V100 profile, so there the epilogue's bytes
// hide under the GEMM's compute and the fused execution time also drops.
class GemmEpilogueTest : public ElementwiseTest,
                         public ::testing::WithParamInterface<DType> {
 protected:
  struct Cost {
    int64_t launches = 0, bytes = 0;
    double busy_us = 0, clock_us = 0;
  };
  Cost cost() const {
    return {dev.stats().launches, dev.stats().bytes_moved, dev.stats().busy_us,
            dev.clock_us()};
  }
  // The GEMM launch, then `chain` under the shard's charge scale.
  Cost two_launches(const gemm::GemmLaunch& g, double share,
                    const std::function<void()>& chain) {
    dev.reset();
    dev.launch(g.desc, g.body);
    if (share != 1.0) dev.push_charge_scale(share);
    chain();
    if (share != 1.0) dev.pop_charge_scale();
    return cost();
  }
  Cost epilogue(const std::function<void()>& fused) {
    dev.reset();
    fused();
    return cost();
  }
  // The fused launch against the two-launch chain: one launch under `tag`,
  // `saved` fewer bytes, a shorter clock (and execution in FP32).
  void expect_fused(const Cost& fused, const Cost& chain, const std::string& tag,
                    int64_t saved) {
    EXPECT_EQ(chain.launches, 2);
    EXPECT_EQ(fused.launches, 1);
    ASSERT_EQ(dev.per_kernel().size(), 1u);
    EXPECT_EQ(dev.per_kernel().begin()->first, tag);
    EXPECT_EQ(fused.bytes, chain.bytes - saved);
    EXPECT_LT(fused.clock_us, chain.clock_us);
    if (GetParam() == DType::kF32) EXPECT_LT(fused.busy_us, chain.busy_us);
  }
  static bool same(const Tensor& a, const Tensor& b) {
    return a.bytes() == b.bytes() && std::memcmp(a.raw(), b.raw(), a.bytes()) == 0;
  }
};

TEST_P(GemmEpilogueTest, FusedLaunchIsBitwiseTheChain) {
  const DType dt = GetParam();
  const int64_t M = 96, H = 64, F = 128;  // tokens, model width, FFN width
  const float p = 0.2f;
  kc.microbatch = 1;  // the dropout streams start one microbatch in
  const Tensor ln = randn({M, H}, 1, dt), w1 = randn({F, H}, 2, dt), b1 = randn({F}, 3, dt);
  const Tensor w2 = randn({H, F}, 4, dt), b2 = randn({H}, 5, dt), x = randn({M, H}, 6, dt);
  const Tensor dh2 = randn({M, H}, 7, dt), db0 = randn({F}, 8, dt);
  auto empty = [&](Shape shape) { return Tensor::empty(std::move(shape), dt); };
  auto mask = [](Shape shape) { return Tensor::empty(std::move(shape), DType::kU8); };

  for (const bool relu : {true, false}) {
    const auto act_fw = relu ? &fused::bias_relu_dropout_fw : &fused::bias_gelu_dropout_fw;
    const auto act_bw = relu ? &fused::bias_relu_dropout_bw : &fused::bias_gelu_dropout_bw;
    // Unsharded, and one rank's shard at tp = 2: fc1 column-parallel and
    // the fc2 dx GEMM row-parallel both charge [M, F/tp] outputs over k = H.
    for (const int64_t tp : {1, 2}) {
      SCOPED_TRACE(std::string(relu ? "relu" : "gelu") + " tp " + std::to_string(tp));
      const double share = 1.0 / static_cast<double>(tp);
      const gemm::GemmCharge shard{M, F / tp, H, 1};
      const gemm::GemmCharge* charge = tp > 1 ? &shard : nullptr;

      // fc1 + bias + activation + dropout; the GEMM still stores h1.
      Tensor h1_ref = empty({M, F}), a_ref = empty({M, F}), m_ref = mask({M, F});
      const Cost fw_chain = two_launches(
          gemm::gemm_launch(false, true, M, F, H, 1.0f, ln, w1, 0.0f, h1_ref, "ffn.fc1.fw",
                            charge),
          share, [&] { act_fw(kc, h1_ref, b1, a_ref, m_ref, p, 11, nullptr); });
      Tensor h1 = empty({M, F}), a = empty({M, F}), m = mask({M, F});
      const gemm::GemmLaunch fc1 =
          gemm::gemm_launch(false, true, M, F, H, 1.0f, ln, w1, 0.0f, h1, "ffn.fc1.fw",
                            charge);
      EXPECT_EQ(fc1.c_share, share);
      const Cost fw = epilogue([&] { act_fw(kc, h1, b1, a, m, p, 11, &fc1); });
      EXPECT_TRUE(same(h1, h1_ref)) << "h1";
      EXPECT_TRUE(same(a, a_ref)) << "activation";
      EXPECT_TRUE(same(m, m_ref)) << "mask";
      expect_fused(fw, fw_chain, "ffn.fc1.fw",
                   static_cast<int64_t>(static_cast<double>(h1.bytes()) * share));

      // fc2's dx GEMM + the chain's backward, in place over dh1, folding
      // db1 from nonzero values.
      Tensor dh1_ref = empty({M, F}), da = empty({M, F}), db_ref = empty({F});
      db_ref.copy_(db0);
      const Cost bw_chain = two_launches(
          gemm::gemm_launch(false, false, M, F, H, 1.0f, dh2, w2, 0.0f, da, "ffn.fc2.bw_dx",
                            charge),
          share, [&] { act_bw(kc, da, m_ref, h1_ref, b1, dh1_ref, p, db_ref, nullptr); });
      Tensor dh1 = empty({M, F}), db = empty({F});
      db.copy_(db0);
      const gemm::GemmLaunch fc2_dx = gemm::gemm_launch(false, false, M, F, H, 1.0f, dh2, w2,
                                                        0.0f, dh1, "ffn.fc2.bw_dx", charge);
      const Cost bw = epilogue([&] { act_bw(kc, dh1, m, h1, b1, dh1, p, db, &fc2_dx); });
      EXPECT_TRUE(same(dh1, dh1_ref)) << "dx";
      EXPECT_TRUE(same(db, db_ref)) << "db1";
      expect_fused(bw, bw_chain, "ffn.fc2.bw_dx",
                   2 * static_cast<int64_t>(static_cast<double>(dh1.bytes()) * share));
    }
  }

  // fc2 + bias + dropout + residual, in place over y (TP = 1 only in the
  // layers: under TP the all-reduce sits between GEMM and chain).
  Tensor a = empty({M, F});
  a.copy_(randn({M, F}, 9, dt));
  Tensor h2 = empty({M, H}), y_ref = empty({M, H}), m_ref = mask({M, H});
  const Cost chain = two_launches(
      gemm::gemm_launch(false, true, M, H, F, 1.0f, a, w2, 0.0f, h2, "ffn.fc2.fw"), 1.0,
      [&] { fused::bias_dropout_residual_fw(kc, h2, b2, x, y_ref, m_ref, p, 12); });
  Tensor y = empty({M, H}), m = mask({M, H});
  const gemm::GemmLaunch fc2 =
      gemm::gemm_launch(false, true, M, H, F, 1.0f, a, w2, 0.0f, y, "ffn.fc2.fw");
  const Cost fused_cost =
      epilogue([&] { fused::bias_dropout_residual_fw(kc, y, b2, x, y, m, p, 12, &fc2); });
  EXPECT_TRUE(same(y, y_ref)) << "y";
  EXPECT_TRUE(same(m, m_ref)) << "mask";
  expect_fused(fused_cost, chain, "ffn.fc2.fw", 2 * static_cast<int64_t>(y.bytes()));
}

INSTANTIATE_TEST_SUITE_P(Dtypes, GemmEpilogueTest, ::testing::Values(DType::kF32, DType::kF16),
                         [](const auto& info) {
                           return std::string(info.param == DType::kF32 ? "F32" : "F16");
                         });

// An epilogue reads its GEMM's output and carries the GEMM's own shard
// charge, so a chain handed another tensor, or launched under a charge
// scale, is refused.
TEST_F(ElementwiseTest, EpilogueRejectsForeignInputAndChargeScale) {
  const int64_t M = 8, K = 4, N = 16;
  Tensor a = randn({M, K}, 1), w = randn({N, K}, 2), bias = randn({N}, 3);
  Tensor c = Tensor::empty({M, N}, DType::kF32), other = Tensor::empty({M, N}, DType::kF32);
  Tensor y = Tensor::empty({M, N}, DType::kF32), mask = Tensor::empty({M, N}, DType::kU8);
  const gemm::GemmLaunch g = gemm::gemm_launch(false, true, M, N, K, 1.0f, a, w, 0.0f, c);
  EXPECT_THROW(fused::bias_relu_dropout_fw(kc, other, bias, y, mask, 0.1f, 1, &g), Error);
  EXPECT_THROW(fused::bias_relu_dropout_bw(kc, other, mask, c, bias, y, 0.1f, {}, &g), Error);
  dev.push_charge_scale(0.5);
  EXPECT_THROW(fused::bias_relu_dropout_fw(kc, c, bias, y, mask, 0.1f, 1, &g), Error);
  dev.pop_charge_scale();
  fused::bias_relu_dropout_fw(kc, c, bias, y, mask, 0.1f, 1, &g);
}

TEST_F(ElementwiseTest, FusionReducesLaunchesAndBytes) {
  const int64_t rows = 128, cols = 512;
  Tensor x = randn({rows, cols}, 1);
  Tensor bias = randn({cols}, 2);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);

  dev.reset();
  fused::bias_relu_dropout_fw(kc, x, bias, y, mask, 0.1f, 1);
  const auto fused_stats = dev.stats();

  dev.reset();
  Tensor t1 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor t2 = Tensor::empty({rows, cols}, DType::kF32);
  baseline::add_bias(kc, x, bias, t1);
  baseline::relu_fw(kc, t1, t2);
  dropout_fw(kc, Impl::kTorch, t2, y, mask, 0.1f, 1);
  const auto base_stats = dev.stats();

  EXPECT_EQ(fused_stats.launches, 1);
  EXPECT_EQ(base_stats.launches, 3);
  EXPECT_LT(fused_stats.bytes_moved, base_stats.bytes_moved);
  EXPECT_LT(fused_stats.busy_us + fused_stats.overhead_us,
            base_stats.busy_us + base_stats.overhead_us);
}

TEST_F(ElementwiseTest, HalfPrecisionWithinTolerance) {
  const int64_t rows = 32, cols = 64;
  Tensor x32 = randn({rows, cols}, 1);
  Tensor b32 = randn({cols}, 2);
  Tensor x16 = Tensor::from_vector(x32.to_vector(), {rows, cols}, DType::kF16);
  Tensor b16 = Tensor::from_vector(b32.to_vector(), {cols}, DType::kF16);

  Tensor y32 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor y16 = Tensor::empty({rows, cols}, DType::kF16);
  Tensor m32 = Tensor::empty({rows, cols}, DType::kU8);
  Tensor m16 = Tensor::empty({rows, cols}, DType::kU8);
  fused::bias_relu_dropout_fw(kc, x32, b32, y32, m32, 0.1f, 3);
  fused::bias_relu_dropout_fw(kc, x16, b16, y16, m16, 0.1f, 3);

  EXPECT_EQ(m32.to_vector(), m16.to_vector());  // identical masks
  const auto v32 = y32.to_vector(), v16 = y16.to_vector();
  for (size_t i = 0; i < v32.size(); ++i) {
    EXPECT_NEAR(v16[i], v32[i], 0.01f + 0.01f * std::abs(v32[i]));
  }
}

TEST_F(ElementwiseTest, CastRoundTrip) {
  Tensor x = randn({100}, 1);
  Tensor h = Tensor::empty({100}, DType::kF16);
  Tensor back = Tensor::empty({100}, DType::kF32);
  baseline::cast(kc, x, h);
  baseline::cast(kc, h, back);
  const auto xv = x.to_vector(), bv = back.to_vector();
  for (size_t i = 0; i < xv.size(); ++i)
    EXPECT_NEAR(bv[i], xv[i], std::abs(xv[i]) * 0.001f + 1e-4f);
}

TEST_F(ElementwiseTest, DropoutZeroRateKeepsEverything) {
  Tensor x = randn({1000}, 1);
  Tensor y = Tensor::empty({1000}, DType::kF32);
  Tensor mask = Tensor::empty({1000}, DType::kU8);
  dropout_fw(kc, Impl::kLS2, x, y, mask, 0.0f, 1);
  EXPECT_EQ(y.to_vector(), x.to_vector());
}

TEST_F(ElementwiseTest, DropoutRateIsRespected) {
  const int64_t n = 100000;
  Tensor x = Tensor::empty({n}, DType::kF32);
  x.fill_(1.0f);
  Tensor y = Tensor::empty({n}, DType::kF32);
  Tensor mask = Tensor::empty({n}, DType::kU8);
  dropout_fw(kc, Impl::kLS2, x, y, mask, 0.3f, 5);
  double kept = 0;
  for (float v : mask.to_vector()) kept += v;
  EXPECT_NEAR(kept / n, 0.7, 0.01);
  // Kept values are scaled by 1/(1-p): E[y] ~ 1.
  double mean = 0;
  for (float v : y.to_vector()) mean += v;
  EXPECT_NEAR(mean / n, 1.0, 0.02);
}

TEST_F(ElementwiseTest, DropoutImplsShareMasks) {
  // All four modeled systems draw identical masks for a (seed, stream):
  // they differ only in performance accounting.
  const int64_t n = 4096;
  Tensor x = randn({n}, 1);
  for (Impl impl : {Impl::kTorch, Impl::kTensorFlow, Impl::kDeepSpeed, Impl::kLS2}) {
    Tensor y = Tensor::empty({n}, DType::kF32);
    Tensor mask = Tensor::empty({n}, DType::kU8);
    dropout_fw(kc, impl, x, y, mask, 0.25f, 77);
    Tensor yl = Tensor::empty({n}, DType::kF32);
    Tensor ml = Tensor::empty({n}, DType::kU8);
    dropout_fw(kc, Impl::kLS2, x, yl, ml, 0.25f, 77);
    EXPECT_EQ(mask.to_vector(), ml.to_vector()) << impl_name(impl);
    EXPECT_EQ(y.to_vector(), yl.to_vector()) << impl_name(impl);
  }
}

TEST_F(ElementwiseTest, InvalidDropoutRateThrows) {
  Tensor x = randn({8}, 1);
  Tensor y = Tensor::empty({8}, DType::kF32);
  Tensor mask = Tensor::empty({8}, DType::kU8);
  EXPECT_THROW(dropout_fw(kc, Impl::kLS2, x, y, mask, 1.0f, 1), Error);
  EXPECT_THROW(dropout_fw(kc, Impl::kLS2, x, y, mask, -0.1f, 1), Error);
}

}  // namespace
}  // namespace ls2::kern
