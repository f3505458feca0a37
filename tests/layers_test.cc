#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "layers/criterion_layer.h"
#include "layers/decoder_layer.h"
#include "layers/embedding_layer.h"
#include "layers/encoder_layer.h"
#include "memory/measuring_allocator.h"
#include "simgpu/profile.h"

namespace ls2::layers {
namespace {

TransformerLayerConfig tiny_config(float dropout) {
  TransformerLayerConfig cfg;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.dropout = dropout;
  cfg.attn_dropout = dropout;
  cfg.act_dropout = dropout;
  return cfg;
}

// Materialised layers start with all-zero biases (Init::kZero), under which
// a bias read from the wrong columns computes the same as the right one.
// The parity tests draw every bias instead, one stream per parameter in
// declaration order, so each policy sees the same values.
void randomize_biases(const ParamRegistry& params) {
  uint64_t stream = 0;
  params.for_each([&](const std::string& name, Tensor value, Tensor) {
    ++stream;
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".bias") == 0)
      Rng(77).fill_normal(value, stream, 0.0f, 0.5f);
  });
}

struct Harness {
  explicit Harness(System system, uint64_t seed = 42) : Harness(policy_for(system), seed) {}
  explicit Harness(const Policy& policy, uint64_t seed = 42)
      : device(simgpu::v100(), simgpu::ExecMode::kExecute), ctx(device, nullptr, policy, seed) {}

  Tensor randn(Shape shape, uint64_t stream, float sd = 1.0f) {
    Tensor t = Tensor::empty(std::move(shape), DType::kF32);
    Rng(123).fill_normal(t, stream, 0.0f, sd);
    return t;
  }

  simgpu::Device device;
  LayerContext ctx;
};

TEST(ParamRegistryTest, WorkspaceAndPerTensorInitIdentical) {
  Rng rng(7);
  ParamRegistry a, b;
  a.declare("w", Shape{8, 4}, Init::kXavier);
  a.declare("g", Shape{4}, Init::kOne);
  a.declare("e", Shape{10, 4}, Init::kNormal);
  b.declare("w", Shape{8, 4}, Init::kXavier);
  b.declare("g", Shape{4}, Init::kOne);
  b.declare("e", Shape{10, 4}, Init::kNormal);
  a.materialize(DType::kF32, /*contiguous=*/true, rng);
  b.materialize(DType::kF32, /*contiguous=*/false, rng);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.value({i}).to_vector(), b.value({i}).to_vector()) << a.name({i});
  }
  // Workspace flat view must cover all parameters.
  EXPECT_GE(a.flat_values().numel(), a.total_elements());
  EXPECT_THROW(b.flat_values(), Error);
}

TEST(ParamRegistryTest, GradsZeroedAndLinked) {
  Rng rng(7);
  ParamRegistry reg;
  ParamRef w = reg.declare("w", Shape{4, 4}, Init::kXavier);
  reg.materialize(DType::kF32, true, rng);
  reg.grad(w).fill_(3.0f);
  // The flat gradient view must see the same storage.
  bool found = false;
  const auto flat = reg.flat_grads().to_vector();
  for (float v : flat) {
    if (v == 3.0f) found = true;
  }
  EXPECT_TRUE(found);
  reg.zero_grads();
  for (float v : reg.grad(w).to_vector()) EXPECT_EQ(v, 0.0f);
}

TEST(EncoderLayerTest, ForwardShapeAndFiniteValues) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  TransformerEncoderLayer layer(params, "enc.0", tiny_config(0.1f));
  params.materialize(DType::kF32, true, Rng(1));
  Tensor x = h.randn({2, 5, 16}, 1, 0.5f);
  Tensor y = layer.forward(h.ctx, x, nullptr);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 16}));
  for (float v : y.to_vector()) ASSERT_FALSE(std::isnan(v) || std::isinf(v));
  layer.release();
}

// All four systems implement the same math: given identical parameters and
// RNG streams they must produce identical outputs and gradients. This is
// the layer-level statement of the paper's "no change in training behavior".
// LightSeq2 once more with its bias gradients reduced by separate bias_grad
// launches: folding them into the backward kernels must not move a bit.
TEST(EncoderLayerTest, PolicyEquivalenceForwardBackward) {
  Policy unfolded = policy_for(System::kLightSeq2);
  unfolded.fold_bias_grad = false;
  const std::vector<std::pair<std::string, Policy>> policies = {
      {"Fairseq", policy_for(System::kFairseq)},
      {"Fairseq+Apex", policy_for(System::kFairseqApex)},
      {"DeepSpeed", policy_for(System::kDeepSpeed)},
      {"LightSeq2", policy_for(System::kLightSeq2)},
      {"LightSeq2, bias fold off", unfolded},
  };
  std::vector<float> ref_y, ref_dx;
  std::vector<std::vector<float>> ref_grads, ls2_grads;
  for (const auto& [name, policy] : policies) {
    Harness h(policy, /*seed=*/99);
    ParamRegistry params;
    TransformerEncoderLayer layer(params, "enc.0", tiny_config(0.2f));
    params.materialize(DType::kF32, policy.system == System::kLightSeq2, Rng(1));
    randomize_biases(params);
    params.zero_grads();
    Tensor x = h.randn({2, 4, 16}, 1, 0.5f);
    Tensor y = layer.forward(h.ctx, x, nullptr);
    Tensor dy = h.randn({2, 4, 16}, 2, 0.1f);
    Tensor dx = layer.backward(h.ctx, dy);

    std::vector<std::vector<float>> grads;
    params.for_each([&](const std::string&, Tensor, Tensor g) {
      grads.push_back(g.to_vector());
    });
    if (policy.system == System::kLightSeq2) {
      if (ls2_grads.empty()) {
        ls2_grads = grads;
      } else {
        EXPECT_EQ(grads, ls2_grads) << name;
      }
    }
    if (ref_y.empty()) {
      ref_y = y.to_vector();
      ref_dx = dx.to_vector();
      ref_grads = grads;
    } else {
      EXPECT_EQ(y.to_vector(), ref_y) << name;
      EXPECT_EQ(dx.to_vector(), ref_dx) << name;
      ASSERT_EQ(grads.size(), ref_grads.size());
      for (size_t i = 0; i < grads.size(); ++i) {
        ASSERT_EQ(grads[i].size(), ref_grads[i].size());
        for (size_t j = 0; j < grads[i].size(); ++j) {
          ASSERT_NEAR(grads[i][j], ref_grads[i][j], 1e-5)
              << name << " param " << i << " elem " << j;
        }
      }
    }
  }
}

TEST(EncoderLayerTest, InputGradientMatchesFiniteDifference) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  TransformerEncoderLayer layer(params, "enc.0", tiny_config(0.0f));
  params.materialize(DType::kF32, true, Rng(1));

  Tensor x = h.randn({1, 3, 16}, 1, 0.5f);
  Tensor dy = h.randn({1, 3, 16}, 2, 0.3f);

  params.zero_grads();
  Tensor y = layer.forward(h.ctx, x, nullptr);
  Tensor dx = layer.backward(h.ctx, dy);
  const auto dxv = dx.to_vector();

  auto objective = [&](const std::vector<float>& xv) {
    Tensor xt = Tensor::from_vector(xv, {1, 3, 16}, DType::kF32);
    Tensor yt = layer.forward(h.ctx, xt, nullptr);
    layer.release();
    const auto yv = yt.to_vector();
    const auto dyv = dy.to_vector();
    double s = 0;
    for (size_t i = 0; i < yv.size(); ++i) s += static_cast<double>(dyv[i]) * yv[i];
    return s;
  };
  const auto xv = x.to_vector();
  const float eps = 1e-3f;
  for (size_t i = 0; i < xv.size(); i += 5) {
    auto xp = xv, xm = xv;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (objective(xp) - objective(xm)) / (2 * eps);
    EXPECT_NEAR(dxv[i], numeric, 3e-2 * (1.0 + std::abs(numeric))) << "i=" << i;
  }
}

TEST(EncoderLayerTest, WeightGradientMatchesFiniteDifference) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  TransformerEncoderLayer layer(params, "enc.0", tiny_config(0.0f));
  params.materialize(DType::kF32, true, Rng(1));

  Tensor x = h.randn({1, 3, 16}, 1, 0.5f);
  Tensor dy = h.randn({1, 3, 16}, 2, 0.3f);
  params.zero_grads();
  layer.forward(h.ctx, x, nullptr);
  layer.backward(h.ctx, dy);

  // Check a few entries of the first FFN weight and the QKV projection.
  for (const char* pname : {"enc.0.ffn.fc1.weight", "enc.0.self_attn.qkv_proj.weight",
                            "enc.0.self_attn.ln.gamma"}) {
    ParamRef ref;
    for (int i = 0; i < params.size(); ++i) {
      if (params.name({i}) == pname) ref = {i};
    }
    ASSERT_TRUE(ref.valid()) << pname;
    Tensor w = params.value(ref);
    const auto gv = params.grad(ref).to_vector();
    auto wv = w.to_vector();
    const float eps = 1e-3f;
    for (size_t i = 0; i < wv.size(); i += std::max<size_t>(1, wv.size() / 4)) {
      const float orig = wv[i];
      auto perturb = [&](float delta) {
        wv[i] = orig + delta;
        w.copy_from(wv);
        Tensor yt = layer.forward(h.ctx, x, nullptr);
        layer.release();
        const auto yv = yt.to_vector();
        const auto dyv = dy.to_vector();
        double s = 0;
        for (size_t j = 0; j < yv.size(); ++j) s += static_cast<double>(dyv[j]) * yv[j];
        return s;
      };
      const double numeric = (perturb(eps) - perturb(-eps)) / (2 * eps);
      wv[i] = orig;
      w.copy_from(wv);
      EXPECT_NEAR(gv[i], numeric, 3e-2 * (1.0 + std::abs(numeric)))
          << pname << "[" << i << "]";
    }
  }
}

TEST(EncoderLayerTest, PaddingMaskExcludesPaddedKeys) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  TransformerEncoderLayer layer(params, "enc.0", tiny_config(0.0f));
  params.materialize(DType::kF32, true, Rng(1));

  // Two inputs identical in the first 3 positions, garbage beyond; with
  // key_lens=3 the first 3 output rows must match exactly.
  Tensor x1 = h.randn({1, 5, 16}, 1, 0.5f);
  Tensor x2 = Tensor::from_vector(x1.to_vector(), {1, 5, 16}, DType::kF32);
  {
    auto v = x2.to_vector();
    for (size_t i = 3 * 16; i < v.size(); ++i) v[i] = 9.0f;
    x2.copy_from(v);
  }
  Tensor lens = Tensor::from_vector({3.0f}, {1}, DType::kI32);
  Tensor y1 = layer.forward(h.ctx, x1, &lens);
  layer.release();
  Tensor y2 = layer.forward(h.ctx, x2, &lens);
  layer.release();
  const auto v1 = y1.to_vector(), v2 = y2.to_vector();
  for (size_t i = 0; i < 3 * 16; ++i) EXPECT_FLOAT_EQ(v1[i], v2[i]) << i;
}

TEST(DecoderLayerTest, CausalityHolds) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  TransformerLayerConfig cfg = tiny_config(0.0f);
  TransformerDecoderLayer layer(params, "dec.0", cfg);
  params.materialize(DType::kF32, true, Rng(1));

  const int64_t B = 1, Lt = 6, Ls = 4, H = 16, N = 2, D = 8;
  Tensor k = h.randn({B, N, Ls, D}, 10, 0.5f);
  Tensor v = h.randn({B, N, Ls, D}, 11, 0.5f);
  Tensor x1 = h.randn({B, Lt, H}, 1, 0.5f);
  Tensor x2 = Tensor::from_vector(x1.to_vector(), {B, Lt, H}, DType::kF32);
  {
    // Change only the last position.
    auto xv = x2.to_vector();
    for (int64_t j = 0; j < H; ++j) xv[static_cast<size_t>((Lt - 1) * H + j)] += 5.0f;
    x2.copy_from(xv);
  }
  Tensor y1 = layer.forward(h.ctx, x1, k, v, nullptr, nullptr);
  layer.release();
  Tensor y2 = layer.forward(h.ctx, x2, k, v, nullptr, nullptr);
  layer.release();
  const auto v1 = y1.to_vector(), v2 = y2.to_vector();
  // Positions 0..Lt-2 must be unaffected by the change at Lt-1.
  for (size_t i = 0; i < static_cast<size_t>((Lt - 1) * H); ++i) {
    EXPECT_FLOAT_EQ(v1[i], v2[i]) << i;
  }
  // The changed position must differ.
  bool differs = false;
  for (size_t i = static_cast<size_t>((Lt - 1) * H); i < v1.size(); ++i) {
    if (v1[i] != v2[i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(DecoderLayerTest, CrossAttentionGradsAccumulate) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  TransformerDecoderLayer layer(params, "dec.0", tiny_config(0.0f));
  params.materialize(DType::kF32, true, Rng(1));
  params.zero_grads();

  const int64_t B = 1, Lt = 3, Ls = 4, H = 16, N = 2, D = 8;
  Tensor k = h.randn({B, N, Ls, D}, 10, 0.5f);
  Tensor v = h.randn({B, N, Ls, D}, 11, 0.5f);
  Tensor x = h.randn({B, Lt, H}, 1, 0.5f);
  Tensor y = layer.forward(h.ctx, x, k, v, nullptr, nullptr);
  Tensor dy = h.randn({B, Lt, H}, 2, 0.2f);
  Tensor dk = Tensor::zeros({B, N, Ls, D}, DType::kF32);
  Tensor dv = Tensor::zeros({B, N, Ls, D}, DType::kF32);
  Tensor dx = layer.backward(h.ctx, dy, dk, dv);
  EXPECT_EQ(dx.shape(), x.shape());
  double knorm = 0, vnorm = 0;
  for (float f : dk.to_vector()) knorm += std::abs(f);
  for (float f : dv.to_vector()) vnorm += std::abs(f);
  EXPECT_GT(knorm, 0.0);
  EXPECT_GT(vnorm, 0.0);
}

// The decoder's two attentions under every system that runs a decoder:
// causal self-attention over padded targets, and cross attention with
// Lq != Lk under padded sources, at dropout 0.2. The cross K/V gradients
// accumulate onto nonzero values, as they do after a later layer's
// backward, so the rounding of the accumulation is compared too.
TEST(DecoderLayerTest, PolicyEquivalenceForwardBackward) {
  const int64_t B = 2, Lt = 5, Ls = 4, H = 16, N = 2, D = 8;
  const Tensor src_lens = Tensor::from_vector({4, 3}, {B}, DType::kI32);
  const Tensor tgt_lens = Tensor::from_vector({5, 3}, {B}, DType::kI32);
  std::vector<float> ref_y, ref_dx, ref_dk, ref_dv;
  std::vector<std::vector<float>> ref_grads;
  for (System system : {System::kFairseq, System::kFairseqApex, System::kLightSeq2}) {
    const std::string name = system_name(system);
    Harness h(system, /*seed=*/99);
    ParamRegistry params;
    TransformerDecoderLayer layer(params, "dec.0", tiny_config(0.2f));
    params.materialize(DType::kF32, system == System::kLightSeq2, Rng(1));
    randomize_biases(params);
    params.zero_grads();
    Tensor k = h.randn({B, N, Ls, D}, 10, 0.5f);
    Tensor v = h.randn({B, N, Ls, D}, 11, 0.5f);
    Tensor x = h.randn({B, Lt, H}, 1, 0.5f);
    Tensor y = layer.forward(h.ctx, x, k, v, &src_lens, &tgt_lens);
    Tensor dy = h.randn({B, Lt, H}, 2, 0.1f);
    Tensor dk = h.randn({B, N, Ls, D}, 12, 0.05f);
    Tensor dv = h.randn({B, N, Ls, D}, 13, 0.05f);
    Tensor dx = layer.backward(h.ctx, dy, dk, dv);

    std::vector<std::vector<float>> grads;
    params.for_each([&](const std::string&, Tensor, Tensor g) {
      grads.push_back(g.to_vector());
    });
    if (ref_y.empty()) {
      ref_y = y.to_vector();
      ref_dx = dx.to_vector();
      ref_dk = dk.to_vector();
      ref_dv = dv.to_vector();
      ref_grads = grads;
      continue;
    }
    EXPECT_EQ(y.to_vector(), ref_y) << name;
    EXPECT_EQ(dx.to_vector(), ref_dx) << name;
    EXPECT_EQ(dk.to_vector(), ref_dk) << name;
    EXPECT_EQ(dv.to_vector(), ref_dv) << name;
    ASSERT_EQ(grads.size(), ref_grads.size());
    for (size_t i = 0; i < grads.size(); ++i) {
      ASSERT_EQ(grads[i].size(), ref_grads[i].size());
      for (size_t j = 0; j < grads[i].size(); ++j) {
        ASSERT_NEAR(grads[i][j], ref_grads[i][j], 1e-5)
            << name << " param " << i << " elem " << j;
      }
    }
  }
}

TEST(DecoderLayerTest, DeepSpeedPolicyRejectsDecoder) {
  Harness h(System::kDeepSpeed);
  ParamRegistry params;
  TransformerDecoderLayer layer(params, "dec.0", tiny_config(0.0f));
  params.materialize(DType::kF32, false, Rng(1));
  Tensor x = h.randn({1, 4, 16}, 1);
  Tensor k = h.randn({1, 2, 4, 8}, 2);
  Tensor v = h.randn({1, 2, 4, 8}, 3);
  EXPECT_THROW(layer.forward(h.ctx, x, k, v, nullptr, nullptr), Error);
}

TEST(EmbeddingLayerTest, ForwardAndTiedBackward) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  EmbeddingConfig ecfg;
  ecfg.vocab = 20;
  ecfg.hidden = 16;
  ecfg.max_len = 8;
  ecfg.dropout = 0.0f;
  ecfg.pad_id = 0;
  EmbeddingLayer emb(params, "embed", ecfg);
  CriterionConfig ccfg;
  ccfg.vocab = 20;
  ccfg.hidden = 16;
  ccfg.pad_id = 0;
  CriterionLayer crit(params, "criterion", ccfg, emb.table());
  params.materialize(DType::kF32, true, Rng(1));
  params.zero_grads();

  Tensor ids = Tensor::from_vector({1, 2, 3, 4}, {1, 4}, DType::kI32);
  Tensor targets = Tensor::from_vector({2, 3, 4, 5}, {1, 4}, DType::kI32);
  Tensor x = emb.forward(h.ctx, ids);
  CriterionResult res = crit.forward(h.ctx, x, targets);
  EXPECT_EQ(res.tokens, 4);
  EXPECT_GT(res.loss_sum, 0.0f);
  Tensor dx = crit.backward(h.ctx);
  emb.backward(h.ctx, dx);

  // The tied table must have received gradient from BOTH the projection and
  // the embedding lookup: rows for target tokens AND input tokens non-zero.
  const auto g = params.grad(emb.table().rank0()).to_vector();
  auto row_norm = [&](int row) {
    double s = 0;
    for (int64_t j = 0; j < 16; ++j) s += std::abs(g[static_cast<size_t>(row * 16 + j)]);
    return s;
  };
  EXPECT_GT(row_norm(1), 0.0);   // input token 1 (embedding path)
  EXPECT_GT(row_norm(5), 0.0);   // target token 5 (projection path)
  EXPECT_GT(row_norm(19), 0.0);  // softmax spreads gradient over all rows
}

TEST(CriterionLayerTest, LossIgnoresPadTargets) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  CriterionConfig cfg;
  cfg.vocab = 12;
  cfg.hidden = 8;
  cfg.pad_id = 0;
  CriterionLayer crit(params, "criterion", cfg);
  params.materialize(DType::kF32, true, Rng(1));
  params.zero_grads();
  Tensor x = Tensor::empty({1, 3, 8}, DType::kF32);
  Rng(5).fill_normal(x, 1, 0.0f, 1.0f);
  Tensor targets = Tensor::from_vector({3, 0, 7}, {1, 3}, DType::kI32);
  CriterionResult res = crit.forward(h.ctx, x, targets);
  EXPECT_EQ(res.tokens, 2);  // pad target excluded
  crit.release();
}

// LightSeq2's criterion gradient comes from a training forward's loss
// launch, so a backward after a serving forward, which writes none, throws.
TEST(CriterionLayerTest, LightSeq2BackwardNeedsATrainingForward) {
  Harness h(System::kLightSeq2);
  ParamRegistry params;
  CriterionConfig cfg;
  cfg.vocab = 12;
  cfg.hidden = 8;
  CriterionLayer crit(params, "criterion", cfg);
  params.materialize(DType::kF32, true, Rng(1));
  params.zero_grads();
  Tensor x = Tensor::empty({1, 3, 8}, DType::kF32);
  Rng(5).fill_normal(x, 1, 0.0f, 1.0f);
  Tensor targets = Tensor::from_vector({3, 1, 7}, {1, 3}, DType::kI32);
  {
    LayerContext::InferenceScope serving(h.ctx);
    (void)crit.forward(h.ctx, x, targets);
  }
  EXPECT_THROW(crit.backward(h.ctx), Error);
  crit.release();
  (void)crit.forward(h.ctx, x, targets);
  EXPECT_NO_THROW(crit.backward(h.ctx));
}

// What an attention core holds from forward to backward. Under LightSeq2:
// Q/K/V (the caller's), the merged context, the output-dropout mask and an
// f32 [B, N, Lq] statistic: less than one byte per query-key pair, so no
// [B, N, Lq, Lk] tensor of any dtype. Fairseq holds the probabilities before
// and after dropout and the dropout mask.
TEST(AttentionCoreTest, LightSeq2KeepsNoScoreSizedTensor) {
  const int64_t B = 2, L = 64, H = 16, N = 2, D = 8;
  const int64_t pairs = B * N * L * L;
  for (System system : {System::kFairseq, System::kLightSeq2}) {
    mem::MeasuringAllocator alloc;
    simgpu::Device device(simgpu::v100(), simgpu::ExecMode::kExecute);
    LayerContext ctx(device, &alloc, policy_for(system), 42);
    ParamRegistry params;
    AttentionCore core(params, "attn", AttentionConfig{H, N, 0.1f, 0.1f, true, {}});
    params.materialize(DType::kF32, system == System::kLightSeq2, Rng(1));
    params.zero_grads();
    Harness h(system);
    const Tensor q = h.randn({B, N, L, D}, 1), k = h.randn({B, N, L, D}, 2),
                 v = h.randn({B, N, L, D}, 3), x = h.randn({B, L, H}, 4);
    const Tensor y = core.forward(ctx, q, k, v, x, nullptr);
    const int64_t kept = alloc.bytes_in_use() - static_cast<int64_t>(y.bytes());
    if (system == System::kLightSeq2) {
      EXPECT_LT(kept, pairs) << "a LightSeq2 core keeps no score-sized tensor";
    } else {
      EXPECT_GE(kept, pairs * (4 + 4 + 1)) << "probabilities, dropped probabilities, mask";
    }
    (void)core.backward(ctx, h.randn({B, L, H}, 5, 0.1f));
    core.release();
  }
}

TEST(EncoderLayerTest, LightSeq2LaunchesFarFewerKernels) {
  const int64_t B = 4, L = 32;
  int64_t fair_launches = 0, ls2_launches = 0;
  for (System sys : {System::kFairseq, System::kLightSeq2}) {
    Harness h(sys);
    ParamRegistry params;
    TransformerLayerConfig cfg = tiny_config(0.1f);
    TransformerEncoderLayer layer(params, "enc.0", cfg);
    params.materialize(DType::kF32, sys == System::kLightSeq2, Rng(1));
    params.zero_grads();
    Tensor x = h.randn({B, L, 16}, 1, 0.5f);
    h.device.reset();
    Tensor y = layer.forward(h.ctx, x, nullptr);
    Tensor dy = h.randn({B, L, 16}, 2, 0.1f);
    layer.backward(h.ctx, dy);
    if (sys == System::kFairseq) {
      fair_launches = h.device.stats().launches;
    } else {
      ls2_launches = h.device.stats().launches;
    }
  }
  EXPECT_LT(ls2_launches, fair_launches);
  EXPECT_GE(fair_launches - ls2_launches, 15);  // substantial fusion
}

}  // namespace
}  // namespace ls2::layers
