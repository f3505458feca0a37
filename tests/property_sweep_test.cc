// Property-style sweeps (TEST_P): the invariants that must hold for EVERY
// shape, dtype, mask configuration and system policy — not just the
// hand-picked cases of the unit suites.
#include <gtest/gtest.h>

#include <cmath>

#include "core/lightseq2.h"
#include "kernels/criterion.h"

namespace ls2 {
namespace {

using layers::System;

// ---------------------------------------------------------------------------
// Encoder layer: policy equivalence over a shape grid.
// ---------------------------------------------------------------------------

using ShapeParam = std::tuple<int, int, int, int>;  // B, L, hidden, heads

class EncoderShapeSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(EncoderShapeSweep, AllPoliciesIdenticalEverywhere) {
  const auto [B, L, hidden, heads] = GetParam();
  layers::TransformerLayerConfig cfg;
  cfg.hidden = hidden;
  cfg.heads = heads;
  cfg.ffn_dim = 2 * hidden;
  cfg.dropout = cfg.attn_dropout = cfg.act_dropout = 0.1f;

  std::vector<float> ref_y, ref_dx;
  for (System sys : {System::kFairseq, System::kLightSeq2}) {
    simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
    layers::LayerContext ctx(dev, nullptr, layers::policy_for(sys), /*seed=*/77);
    layers::ParamRegistry params;
    layers::TransformerEncoderLayer layer(params, "enc", cfg);
    params.materialize(DType::kF32, sys == System::kLightSeq2, Rng(1));
    params.zero_grads();

    Tensor x = Tensor::empty({B, L, hidden}, DType::kF32);
    Rng(9).fill_normal(x, 1, 0.0f, 0.7f);
    Tensor y = layer.forward(ctx, x, nullptr);
    Tensor dy = Tensor::empty({B, L, hidden}, DType::kF32);
    Rng(9).fill_normal(dy, 2, 0.0f, 0.2f);
    Tensor dx = layer.backward(ctx, dy);

    if (ref_y.empty()) {
      ref_y = y.to_vector();
      ref_dx = dx.to_vector();
    } else {
      EXPECT_EQ(y.to_vector(), ref_y);
      const auto dxv = dx.to_vector();
      ASSERT_EQ(dxv.size(), ref_dx.size());
      for (size_t i = 0; i < dxv.size(); ++i) ASSERT_NEAR(dxv[i], ref_dx[i], 1e-5) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncoderShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 8, 1),    // degenerate single token
                      std::make_tuple(1, 7, 8, 2),    // odd length
                      std::make_tuple(3, 5, 24, 3),   // non-power-of-two everything
                      std::make_tuple(2, 16, 32, 4),  // friendly shapes
                      std::make_tuple(4, 3, 16, 8))); // heads == wide split

// ---------------------------------------------------------------------------
// FP16 layers track FP32 within half precision on every shape.
// ---------------------------------------------------------------------------

class Fp16Sweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(Fp16Sweep, HalfTracksFloat) {
  const auto [B, L, hidden, heads] = GetParam();
  layers::TransformerLayerConfig cfg;
  cfg.hidden = hidden;
  cfg.heads = heads;
  cfg.ffn_dim = 2 * hidden;
  cfg.dropout = cfg.attn_dropout = cfg.act_dropout = 0.0f;

  std::vector<float> y32;
  for (DType dt : {DType::kF32, DType::kF16}) {
    simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
    layers::LayerContext ctx(dev, nullptr, layers::policy_for(System::kLightSeq2), 77);
    layers::ParamRegistry params;
    layers::TransformerEncoderLayer layer(params, "enc", cfg);
    params.materialize(dt, true, Rng(1));
    Tensor x = Tensor::empty({B, L, hidden}, dt);
    Rng(9).fill_normal(x, 1, 0.0f, 0.5f);
    Tensor y = layer.forward(ctx, x, nullptr);
    if (dt == DType::kF32) {
      y32 = y.to_vector();
    } else {
      const auto y16 = y.to_vector();
      ASSERT_EQ(y16.size(), y32.size());
      for (size_t i = 0; i < y16.size(); ++i) {
        EXPECT_NEAR(y16[i], y32[i], 0.05f + 0.05f * std::abs(y32[i])) << i;
      }
    }
    layer.release();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fp16Sweep,
                         ::testing::Values(std::make_tuple(2, 6, 16, 2),
                                           std::make_tuple(1, 12, 32, 4),
                                           std::make_tuple(3, 4, 48, 6)));

// ---------------------------------------------------------------------------
// Attention masking: padded keys never influence valid outputs, under any
// (causal, lens) combination and any policy.
// ---------------------------------------------------------------------------

using MaskParam = std::tuple<bool, bool, int>;  // causal, use_lens, system index

class MaskSweep : public ::testing::TestWithParam<MaskParam> {};

TEST_P(MaskSweep, PaddingIsInvisible) {
  const auto [causal, use_lens, sys_idx] = GetParam();
  if (!causal && !use_lens) GTEST_SKIP() << "no mask to test";
  const System sys = sys_idx == 0 ? System::kFairseq : System::kLightSeq2;
  const int64_t B = 2, L = 8, H = 16;

  layers::TransformerLayerConfig cfg;
  cfg.hidden = H;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.dropout = cfg.attn_dropout = cfg.act_dropout = 0.0f;
  cfg.causal = causal;

  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  layers::LayerContext ctx(dev, nullptr, layers::policy_for(sys), 77);
  layers::ParamRegistry params;
  layers::TransformerEncoderLayer layer(params, "enc", cfg);
  params.materialize(DType::kF32, sys == System::kLightSeq2, Rng(1));

  const int64_t valid = 5;
  Tensor lens = Tensor::from_vector({static_cast<float>(valid), static_cast<float>(valid)},
                                    {B}, DType::kI32);
  Tensor x1 = Tensor::empty({B, L, H}, DType::kF32);
  Rng(3).fill_normal(x1, 1, 0.0f, 0.5f);
  Tensor x2 = Tensor::from_vector(x1.to_vector(), {B, L, H}, DType::kF32);
  {
    auto v = x2.to_vector();
    for (int64_t b = 0; b < B; ++b)
      for (int64_t i = valid * H; i < L * H; ++i) v[static_cast<size_t>(b * L * H + i)] = 7.0f;
    x2.copy_from(v);
  }
  Tensor y1 = layer.forward(ctx, x1, use_lens ? &lens : nullptr);
  layer.release();
  Tensor y2 = layer.forward(ctx, x2, use_lens ? &lens : nullptr);
  layer.release();
  const auto v1 = y1.to_vector(), v2 = y2.to_vector();
  // With key-length masking (or full causality), outputs at valid positions
  // cannot depend on the garbage suffix.
  if (use_lens || causal) {
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t i = 0; i < valid * H; ++i) {
        ASSERT_FLOAT_EQ(v1[static_cast<size_t>(b * L * H + i)],
                        v2[static_cast<size_t>(b * L * H + i)])
            << "b=" << b << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Masks, MaskSweep,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Arena stress: random LIFO-ish alloc/free traffic never exceeds a capacity
// sized by the measured peak, and always resets cleanly.
// ---------------------------------------------------------------------------

class ArenaStress : public ::testing::TestWithParam<int> {};

TEST_P(ArenaStress, RandomTrafficFitsMeasuredPeak) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  // Generate a plausible step: mixed sizes, mostly LIFO releases.
  struct Op {
    size_t bytes;
    int live_for;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 200; ++i) {
    ops.push_back({static_cast<size_t>(256 + rng.randint(1, static_cast<uint64_t>(i), 1 << 16)),
                   1 + static_cast<int>(rng.randint(2, static_cast<uint64_t>(i), 12))});
  }
  // Probe with the measuring allocator.
  mem::MeasuringAllocator probe;
  auto run = [&](BufferAllocator& alloc) {
    std::vector<std::pair<void*, size_t>> live;  // (ptr, bytes) with deadline
    std::vector<int> deadlines;
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
      // Release expired allocations (LIFO scan).
      for (int j = static_cast<int>(live.size()) - 1; j >= 0; --j) {
        if (deadlines[static_cast<size_t>(j)] <= i) {
          alloc.deallocate(live[static_cast<size_t>(j)].first,
                           live[static_cast<size_t>(j)].second);
          live.erase(live.begin() + j);
          deadlines.erase(deadlines.begin() + j);
        }
      }
      void* p = alloc.allocate(ops[static_cast<size_t>(i)].bytes);
      live.emplace_back(p, ops[static_cast<size_t>(i)].bytes);
      deadlines.push_back(i + ops[static_cast<size_t>(i)].live_for);
    }
    for (size_t j = 0; j < live.size(); ++j) alloc.deallocate(live[j].first, live[j].second);
  };
  run(probe);

  // First-fit fragmentation can need more than the tight live peak; 2x is a
  // conservative bound this traffic must respect.
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  mem::ArenaAllocator arena(dev, static_cast<size_t>(probe.peak_bytes()) * 2);
  EXPECT_NO_THROW(run(arena));
  EXPECT_EQ(arena.outstanding(), 0);
  EXPECT_NO_THROW(arena.reset());
  EXPECT_GE(static_cast<int64_t>(arena.high_water()), probe.peak_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaStress, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Criterion: gradient sums to ~zero over the vocabulary for every alpha
// (softmax shift-invariance), for valid rows.
// ---------------------------------------------------------------------------

class CriterionAlphaSweep : public ::testing::TestWithParam<float> {};

TEST_P(CriterionAlphaSweep, GradSumsToAlphaIndependentConstant) {
  const float alpha = GetParam();
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 5);
  const int64_t rows = 6, V = 19;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 1, 0.0f, 2.0f);
  Tensor targets = Tensor::empty({rows}, DType::kI32);
  kc.rng.fill_randint(targets, 2, 0, V);
  Tensor loss = Tensor::empty({rows}, DType::kF32);
  Tensor stats = Tensor::empty({rows, 2}, DType::kF32);
  Tensor d = Tensor::empty({rows, V}, DType::kF32);
  kern::ls_cross_entropy_fw(kc, kern::Impl::kLS2, logits, targets, loss, stats, alpha, -1, d,
                            1.0f);
  const auto dv = d.to_vector();
  for (int64_t r = 0; r < rows; ++r) {
    double s = 0;
    for (int64_t j = 0; j < V; ++j) s += dv[static_cast<size_t>(r * V + j)];
    // sum(q) - V*(alpha/V) - (1-alpha) = 1 - alpha - 1 + alpha = 0.
    EXPECT_NEAR(s, 0.0, 1e-5) << "row " << r << " alpha " << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, CriterionAlphaSweep,
                         ::testing::Values(0.0f, 0.05f, 0.1f, 0.2f, 0.5f));

}  // namespace
}  // namespace ls2
