#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/lightseq2.h"

namespace ls2::models {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;

TransformerConfig tiny_mt_config() {
  TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 32;
  return cfg;
}

MtBatch tiny_batch(int64_t vocab, uint64_t seed = 5) {
  data::MtDataset ds(vocab, 16, 3, 9, seed);
  auto batches = data::make_mt_batches(ds, 64, DType::kF32);
  return batches.front();
}

// A fresh model's biases are all zero (Init::kZero), under which a bias
// read from the wrong columns computes the same as the right one. The
// parity tests draw every bias instead, one stream per parameter in
// declaration order, so each system sees the same values.
void randomize_biases(const layers::ParamRegistry& params) {
  uint64_t stream = 0;
  params.for_each([&](const std::string& name, Tensor value, Tensor) {
    ++stream;
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".bias") == 0)
      Rng(77).fill_normal(value, stream, 0.0f, 0.5f);
  });
}

SessionConfig session_config(System sys, DType dtype = DType::kF32) {
  SessionConfig sc;
  sc.system = sys;
  sc.dtype = dtype;
  return sc;
}

TEST(TransformerTest, ForwardBackwardRunsAndLossFinite) {
  Session s(session_config(System::kLightSeq2));
  Transformer model(tiny_mt_config(), System::kLightSeq2, DType::kF32, 1);
  model.params().zero_grads();
  MtBatch batch = tiny_batch(64);
  auto res = model.forward(s.ctx(), batch);
  EXPECT_GT(res.tokens, 0);
  EXPECT_TRUE(std::isfinite(res.loss_sum));
  // Near-uniform logits at init: loss ~ log(V) per token.
  EXPECT_NEAR(res.loss_per_token(), std::log(64.0f), 1.5f);
  model.backward(s.ctx());
  // Every parameter must have received some gradient signal.
  int zero_grads = 0;
  model.params().for_each([&](const std::string& name, Tensor, Tensor g) {
    double norm = 0;
    for (float v : g.to_vector()) norm += std::abs(v);
    if (norm == 0.0) ++zero_grads;
  });
  EXPECT_EQ(zero_grads, 0);
}

// The whole-model statement of "no change in training behavior": Fairseq and
// LightSeq2 policies produce identical losses and gradients — which also
// proves layer-batched cross attention (Fig. 5b) computes exactly what the
// per-layer baseline computes.
TEST(TransformerTest, SystemsProduceIdenticalLossAndGrads) {
  MtBatch batch = tiny_batch(64);
  std::optional<float> ref_loss;
  std::vector<float> ref_flat;
  for (System sys : {System::kFairseq, System::kFairseqApex, System::kLightSeq2}) {
    Session s(session_config(sys));
    Transformer model(tiny_mt_config(), sys, DType::kF32, /*seed=*/7);
    randomize_biases(model.params());
    model.params().zero_grads();
    auto res = model.forward(s.ctx(), batch);
    model.backward(s.ctx());
    std::vector<float> flat;
    model.params().for_each([&](const std::string&, Tensor, Tensor g) {
      const auto v = g.to_vector();
      flat.insert(flat.end(), v.begin(), v.end());
    });
    if (!ref_loss) {
      ref_loss = res.loss_sum;
      ref_flat = flat;
    } else {
      EXPECT_NEAR(res.loss_sum, *ref_loss, 1e-4f) << layers::system_name(sys);
      ASSERT_EQ(flat.size(), ref_flat.size());
      for (size_t i = 0; i < flat.size(); ++i) {
        ASSERT_NEAR(flat[i], ref_flat[i], 2e-4f) << layers::system_name(sys) << " " << i;
      }
    }
  }
}

// LightSeq2 with the per-layer cross-K/V projection (Fig. 5a, the ablation's
// other arm) against its layer-batched one (Fig. 5b), in FP32: two GEMMs
// per decoder layer instead of one for the whole stack must compute the
// same keys and values and the same gradients. The loss and every decoder
// and cross-K/V gradient are bitwise equal. The encoder-side gradients
// agree within SystemsProduceIdenticalLossAndGrads' tolerance: the
// per-layer path sums d(enc_out) with one add per GEMM, where one GEMM
// accumulates it in ascending k.
TEST(TransformerTest, PerLayerCrossKvMatchesLayerBatched) {
  MtBatch batch = tiny_batch(64);
  std::optional<float> ref_loss;
  std::vector<std::vector<float>> ref_grads;
  for (bool batched : {true, false}) {
    Session s(session_config(System::kLightSeq2));
    s.ctx().policy.layer_batched_cross_attn = batched;
    Transformer model(tiny_mt_config(), System::kLightSeq2, DType::kF32, /*seed=*/7);
    randomize_biases(model.params());
    model.params().zero_grads();
    const auto res = model.forward(s.ctx(), batch);
    model.backward(s.ctx());
    std::vector<std::vector<float>> grads;
    std::vector<std::string> names;
    model.params().for_each([&](const std::string& name, Tensor, Tensor g) {
      names.push_back(name);
      grads.push_back(g.to_vector());
    });
    if (batched) {
      ref_loss = res.loss_sum;
      ref_grads = grads;
      continue;
    }
    EXPECT_EQ(res.loss_sum, *ref_loss);
    ASSERT_EQ(grads.size(), ref_grads.size());
    int bitwise = 0;
    for (size_t i = 0; i < grads.size(); ++i) {
      ASSERT_EQ(grads[i].size(), ref_grads[i].size()) << names[i];
      if (names[i].rfind("encoder.", 0) != 0) {
        EXPECT_EQ(grads[i], ref_grads[i]) << names[i];
        ++bitwise;
        continue;
      }
      for (size_t j = 0; j < grads[i].size(); ++j)
        ASSERT_NEAR(grads[i][j], ref_grads[i][j], 2e-4f) << names[i] << " " << j;
    }
    EXPECT_GT(bitwise, 0);
  }
}

// LightSeq2 reduces every bias gradient inside the backward kernel that
// produces it; Fairseq launches bias_grad once per biased projection: four
// per encoder layer (QKV, out, fc1, fc2) and eight per decoder layer (self
// QKV and out, cross Q, out, K and V, fc1, fc2).
TEST(TransformerTest, OnlyTheBaselinesLaunchBiasGrad) {
  const TransformerConfig cfg = tiny_mt_config();
  MtBatch batch = tiny_batch(64);
  for (System sys : {System::kFairseq, System::kLightSeq2}) {
    Session s(session_config(sys));
    Transformer model(cfg, sys, DType::kF32, /*seed=*/7);
    model.params().zero_grads();
    (void)model.forward(s.ctx(), batch);
    model.backward(s.ctx());
    const auto& kernels = s.device().per_kernel();
    const auto it = kernels.find("ls2.bias_grad");
    const int64_t launches = it == kernels.end() ? 0 : it->second.launches;
    EXPECT_EQ(launches, sys == System::kFairseq
                            ? 4 * cfg.encoder_layers + 8 * cfg.decoder_layers
                            : 0)
        << layers::system_name(sys);
  }
}

// LightSeq2 reduces each LayerNorm's dgamma/dbeta in its dx launch and
// writes the criterion's gradient from its forward launch: a Transformer
// step launches one ls2.layernorm_bw_dx per LayerNorm (two per encoder
// layer, three per decoder layer and one ending each stack) and no
// layernorm_bw_dparam or criterion backward. Fairseq+Apex runs the same
// LayerNorm kernels, and keeps one dparam launch per LayerNorm and the
// baseline criterion.
TEST(TransformerTest, OnlyTheBaselinesLaunchLayerNormParamGrads) {
  const TransformerConfig cfg = tiny_mt_config();
  const int64_t layer_norms = 2 * cfg.encoder_layers + 3 * cfg.decoder_layers + 2;
  MtBatch batch = tiny_batch(64);
  for (System sys : {System::kFairseqApex, System::kLightSeq2}) {
    Session s(session_config(sys));
    Transformer model(cfg, sys, DType::kF32, /*seed=*/7);
    model.params().zero_grads();
    (void)model.forward(s.ctx(), batch);
    model.backward(s.ctx());
    const auto& kernels = s.device().per_kernel();
    auto launches = [&](const std::string& name) {
      return kernels.count(name) ? kernels.at(name).launches : 0;
    };
    const bool ls2 = sys == System::kLightSeq2;
    const std::string sys_name = layers::system_name(sys);
    EXPECT_EQ(launches("ls2.layernorm_bw_dx"), layer_norms) << sys_name;
    EXPECT_EQ(launches("ls2.layernorm_bw_dparam"), ls2 ? 0 : layer_norms) << sys_name;
    EXPECT_EQ(launches("ls2.criterion_fw"), ls2 ? 1 : 0) << sys_name;
    EXPECT_EQ(launches("ls2.criterion_bw"), 0) << sys_name;
    EXPECT_EQ(launches("torch.ce_bw_scale"), ls2 ? 0 : 1) << sys_name;
  }
}

// Under LightSeq2 every attention of an encoder-decoder training step (an
// encoder layer's self attention, a decoder layer's self and cross
// attention) is one launch each way, and none of the unfused chain's
// launches remain: the scores and context GEMMs and their backward, the
// softmax, the standalone dropout, the head merge, the adds that
// accumulate the cross-attention K/V gradients, and the head split and
// merge around the projections (the kernels read and write the projection
// rows). Fairseq launches its chain once per attention.
TEST(TransformerTest, LightSeq2AttendsInOneLaunchEachWay) {
  const TransformerConfig cfg = tiny_mt_config();
  const int64_t attentions = cfg.encoder_layers + 2 * cfg.decoder_layers;
  MtBatch batch = tiny_batch(64);
  for (System sys : {System::kFairseq, System::kLightSeq2}) {
    Session s(session_config(sys));
    Transformer model(cfg, sys, DType::kF32, /*seed=*/7);
    model.params().zero_grads();
    (void)model.forward(s.ctx(), batch);
    model.backward(s.ctx());
    // Launches of the kernels whose name starts with `prefix`.
    auto launches = [&](const std::string& prefix) {
      int64_t n = 0;
      for (const auto& [name, ks] : s.device().per_kernel())
        if (name.rfind(prefix, 0) == 0) n += ks.launches;
      return n;
    };
    const std::string sys_name = layers::system_name(sys);
    if (sys == System::kFairseq) {
      for (const char* chain : {"attn.scores", "attn.context", "attn.bw_dS", "attn.bw_dV",
                                "attn.bw_dQ", "attn.bw_dK", "torch.softmax_fw",
                                "torch.softmax_bw", "torch.merge_heads_bw"}) {
        EXPECT_EQ(launches(chain), attentions) << sys_name << " " << chain;
      }
      EXPECT_EQ(launches("ls2.attn_"), 0) << sys_name;
      continue;
    }
    EXPECT_EQ(launches("ls2.attn_fw"), attentions) << sys_name;
    EXPECT_EQ(launches("ls2.attn_bw"), attentions) << sys_name;
    // The bias chains run as epilogues of their GEMMs; only the residual
    // chain's backward, whose output feeds two GEMMs, keeps its launch.
    for (const char* gone : {"attn.scores", "attn.context", "attn.bw_", "ls2.attn_softmax_fw",
                             "ls2.softmax_bw", "ls2.dropout_fw", "ls2.dropout_bw",
                             "ls2.merge_heads", "ls2.add", "ls2.bias_split_transpose",
                             "ls2.split_transpose_bw", "ls2.bias_relu_dropout_fw",
                             "ls2.bias_relu_dropout_bw", "ls2.bias_dropout_residual_fw"}) {
      EXPECT_EQ(launches(gone), 0) << sys_name << " " << gone;
    }
    EXPECT_EQ(launches("ls2.bias_dropout_residual_bw"),
              attentions + cfg.encoder_layers + cfg.decoder_layers)
        << sys_name;
  }
}

TEST(TransformerTest, ParameterCountMatchesAnalytic) {
  TransformerConfig cfg = tiny_mt_config();
  Transformer model(cfg, System::kLightSeq2, DType::kF32, 1);
  EXPECT_EQ(model.params().total_elements(), cfg.parameter_count());
  // And the paper's models are the right order of magnitude.
  EXPECT_NEAR(static_cast<double>(TransformerConfig::big(6, 6).parameter_count()), 2.9e8,
              1.0e8);
}

TEST(Gpt2Test, CausalLmLearnsMarkovStream) {
  Session s(session_config(System::kLightSeq2));
  Gpt2Config cfg;
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 16;
  cfg.dropout = 0.0f;
  Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 1);
  optim::OptimConfig ocfg;
  ocfg.lr = 1e-3f;
  optim::LightSeq2Trainer trainer(model.params(), ocfg);
  data::LmDataset ds(32, 4096, 3);

  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 200; ++step) {
    auto [times, res] = core::train_step(s, model, ds.batch(step, 8, 12), trainer);
    if (step == 0) first_loss = res.loss_per_token();
    last_loss = res.loss_per_token();
  }
  EXPECT_LT(last_loss, first_loss * 0.9f) << "LM did not learn";
}

// A LightSeq2 GPT-2 training step attends in one launch each way per layer
// and launches no head split or merge around them.
TEST(Gpt2Test, LightSeq2StepSplitsNoHeads) {
  Session s(session_config(System::kLightSeq2));
  Gpt2Config cfg;
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 3;
  cfg.max_len = 16;
  Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 1);
  model.params().zero_grads();
  data::LmDataset ds(32, 4096, 3);
  (void)model.forward(s.ctx(), ds.batch(0, 4, 12));
  model.backward(s.ctx());
  const auto& kernels = s.device().per_kernel();
  auto launches = [&](const std::string& name) {
    return kernels.count(name) ? kernels.at(name).launches : 0;
  };
  EXPECT_EQ(launches("ls2.attn_fw"), cfg.layers);
  EXPECT_EQ(launches("ls2.attn_bw"), cfg.layers);
  EXPECT_EQ(launches("ls2.bias_split_transpose"), 0);
  EXPECT_EQ(launches("ls2.split_transpose_bw"), 0);
  EXPECT_EQ(launches("ls2.bias_grad"), 0);
  // The criterion's gradient comes from its forward launch.
  EXPECT_EQ(launches("ls2.criterion_fw"), 1);
  EXPECT_EQ(launches("ls2.criterion_bw"), 0);
  EXPECT_EQ(launches("ls2.layernorm_bw_dparam"), 0);
}

// Under TP = 2 LightSeq2's GPT-2 still runs fc1's GELU chain and its
// backward as epilogues of their GEMMs, but the row-parallel all-reduce
// sits between the output projection or fc2 and its residual chain, so
// each sublayer keeps one bias_dropout_residual_fw launch.
TEST(Gpt2Test, LightSeq2TpStepKeepsOnlyResidualChains) {
  Session s(session_config(System::kLightSeq2));
  dist::ClusterConfig cluster;
  cluster.gpus_per_node = 2;
  cluster.tensor_parallel = 2;
  dist::ProcessGroup pg(cluster);
  s.ctx().tp_group = &pg;
  Gpt2Config cfg;
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 3;
  cfg.max_len = 16;
  cfg.tp.size = 2;
  Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 1, s.param_alloc());
  model.params().zero_grads();
  data::LmDataset ds(32, 4096, 3);
  (void)model.forward(s.ctx(), ds.batch(0, 4, 12));
  model.backward(s.ctx());
  const auto& kernels = s.device().per_kernel();
  auto launches = [&](const std::string& name) {
    return kernels.count(name) ? kernels.at(name).launches : 0;
  };
  EXPECT_EQ(launches("ls2.bias_gelu_dropout_fw"), 0);
  EXPECT_EQ(launches("ls2.bias_gelu_dropout_bw"), 0);
  EXPECT_EQ(launches("ls2.bias_dropout_residual_fw"), 2 * cfg.layers);
  EXPECT_EQ(launches("ffn.fc1.fw"), cfg.layers);
  EXPECT_EQ(launches("ffn.fc2.bw_dx"), cfg.layers);
}

// DeepSpeed models its released encoder kernels: its BERT step still splits
// Q/K/V into head layout and merges the gradients back once per layer, and
// reduces every bias gradient in its own bias_grad (QKV, output, FFN in and
// out per layer, plus the classifier head's).
TEST(BertTest, DeepSpeedStepSplitsAndMergesEveryLayer) {
  Session s(session_config(System::kDeepSpeed));
  BertConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 3;
  cfg.max_len = 32;
  Bert model(cfg, System::kDeepSpeed, DType::kF32, 1);
  model.params().zero_grads();
  data::ClsDataset ds(cfg.vocab, 16, 16, 4);
  (void)model.forward(s.ctx(), ds.batch(0, 4, 16));
  model.backward(s.ctx());
  const auto& kernels = s.device().per_kernel();
  auto launches = [&](const std::string& name) {
    return kernels.count(name) ? kernels.at(name).launches : 0;
  };
  EXPECT_EQ(launches("ls2.bias_split_transpose"), cfg.layers);
  EXPECT_EQ(launches("ls2.split_transpose_bw"), cfg.layers);
  EXPECT_EQ(launches("ls2.bias_grad"), 4 * cfg.layers + 1);
  // Its LayerNorm backward is two launches, and its criterion the baseline's.
  EXPECT_EQ(launches("deepspeed.layernorm_bw_dx"), 2 * cfg.layers + 1);
  EXPECT_EQ(launches("deepspeed.layernorm_bw_dparam"), 2 * cfg.layers + 1);
  EXPECT_EQ(launches("torch.ce_bw_scale"), 1);
  EXPECT_EQ(launches("ls2.attn_fw"), 0);
  // Its bias chains launch on their own, after their GEMMs.
  EXPECT_EQ(launches("ls2.bias_gelu_dropout_fw"), cfg.layers);
  EXPECT_EQ(launches("ls2.bias_gelu_dropout_bw"), cfg.layers);
  EXPECT_EQ(launches("ls2.bias_dropout_residual_fw"), 2 * cfg.layers);
}

// A LightSeq2 BERT step folds every LayerNorm's dgamma/dbeta into its dx
// launch, and the [CLS] head's criterion writes its gradient from the
// forward launch, over the logits after the accuracy has read them.
TEST(BertTest, LightSeq2StepWritesHeadGradientInForward) {
  Session s(session_config(System::kLightSeq2));
  BertConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 3;
  cfg.max_len = 32;
  Bert model(cfg, System::kLightSeq2, DType::kF32, 1);
  model.params().zero_grads();
  data::ClsDataset ds(cfg.vocab, 16, 16, 4);
  (void)model.forward(s.ctx(), ds.batch(0, 4, 16));
  model.backward(s.ctx());
  const auto& kernels = s.device().per_kernel();
  auto launches = [&](const std::string& name) {
    return kernels.count(name) ? kernels.at(name).launches : 0;
  };
  EXPECT_EQ(launches("ls2.criterion_fw"), 1);
  EXPECT_EQ(launches("ls2.criterion_bw"), 0);
  EXPECT_EQ(launches("ls2.layernorm_bw_dx"), 2 * cfg.layers + 1);
  EXPECT_EQ(launches("ls2.layernorm_bw_dparam"), 0);
}

TEST(BertTest, ClassifierTrainsAboveChance) {
  Session s(session_config(System::kLightSeq2));
  BertConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 16;
  cfg.dropout = 0.0f;
  Bert model(cfg, System::kLightSeq2, DType::kF32, 1);
  optim::OptimConfig ocfg;
  ocfg.lr = 2e-3f;
  optim::LightSeq2Trainer trainer(model.params(), ocfg);
  data::ClsDataset ds(64, 256, 16, 4);

  int64_t correct = 0, total = 0;
  for (int step = 0; step < 120; ++step) {
    auto [times, res] = core::train_step(s, model, ds.batch(step, 8, 12), trainer);
    if (step >= 100) {  // accuracy over the last stretch
      correct += res.correct;
      total += res.total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.9);
}

// DeepSpeed's fused kernels run only lengths that are multiples of 16
// (Table I), so an unpadded DeepSpeed batch must throw rather than train
// on kernel costs for a shape DeepSpeed cannot run.
TEST(BertTest, DeepSpeedRejectsLengthsItCannotRun) {
  BertConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 64;
  const auto step_at = [&](int64_t len) {
    Session s(session_config(System::kDeepSpeed));
    Bert model(cfg, System::kDeepSpeed, DType::kF32, 1, s.param_alloc());
    optim::OptimConfig ocfg;
    auto trainer =
        optim::make_trainer(System::kDeepSpeed, model.params(), ocfg, s.param_alloc());
    data::ClsDataset ds(cfg.vocab, 16, len, 1);
    return core::train_step(s, model, ds.batch(0, 4, len), *trainer).second;
  };
  try {
    step_at(33);
    FAIL() << "DeepSpeed trained a length-33 batch";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("DeepSpeed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16"), std::string::npos) << msg;
  }
  EXPECT_EQ(step_at(48).total, 4);
}

TEST(VitTest, ForwardBackwardAndShapes) {
  Session s(session_config(System::kLightSeq2));
  VitConfig cfg;
  cfg.image = 64;
  cfg.patch = 16;  // 16 patches + CLS = 17 tokens
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.num_classes = 4;
  cfg.dropout = 0.1f;
  Vit model(cfg, System::kLightSeq2, DType::kF32, 1);
  model.params().zero_grads();
  data::ImageDataset ds(4, 64, 9);
  auto batch = ds.batch(0, 4, cfg, DType::kF32);
  auto res = model.forward(s.ctx(), batch);
  EXPECT_EQ(res.total, 4);
  EXPECT_TRUE(std::isfinite(res.loss));
  model.backward(s.ctx());
  // Patch projection and positional embedding must have gradients.
  bool pos_has_grad = false;
  model.params().for_each([&](const std::string& name, Tensor, Tensor g) {
    if (name == "vit.pos_embed") {
      for (float v : g.to_vector()) {
        if (v != 0.0f) pos_has_grad = true;
      }
    }
  });
  EXPECT_TRUE(pos_has_grad);
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/ls2_ckpt_test.bin";
  TransformerConfig cfg = tiny_mt_config();
  Transformer a(cfg, System::kLightSeq2, DType::kF32, /*seed=*/11);
  save_checkpoint(a.params(), path);

  Transformer b(cfg, System::kFairseq, DType::kF32, /*seed=*/99);  // different init
  load_checkpoint(b.params(), path);
  for (int i = 0; i < a.params().size(); ++i) {
    EXPECT_EQ(a.params().value({i}).to_vector(), b.params().value({i}).to_vector())
        << a.params().name({i});
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, Fp16RoundTripWithinHalfPrecision) {
  const std::string path = "/tmp/ls2_ckpt_f16.bin";
  TransformerConfig cfg = tiny_mt_config();
  Transformer a(cfg, System::kLightSeq2, DType::kF16, 11);
  save_checkpoint(a.params(), path);
  Transformer b(cfg, System::kLightSeq2, DType::kF16, 99);
  load_checkpoint(b.params(), path);
  for (int i = 0; i < a.params().size(); ++i) {
    EXPECT_EQ(a.params().value({i}).to_vector(), b.params().value({i}).to_vector());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingParameterThrows) {
  const std::string path = "/tmp/ls2_ckpt_missing.bin";
  layers::ParamRegistry small;
  small.declare("only", Shape{4}, layers::Init::kOne);
  small.materialize(DType::kF32, false, Rng(1));
  save_checkpoint(small, path);

  layers::ParamRegistry bigger;
  bigger.declare("only", Shape{4}, layers::Init::kOne);
  bigger.declare("more", Shape{4}, layers::Init::kOne);
  bigger.materialize(DType::kF32, false, Rng(1));
  EXPECT_THROW(load_checkpoint(bigger, path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ls2::models
