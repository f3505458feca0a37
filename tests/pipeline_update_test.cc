// The pipelined update stage: range-granular optimizer updates
// (Optimizer::step_range), the landings the overlap scheduler hands over,
// FP16-wire gradient compression, dynamic loss scaling, and the end-to-end
// claim that applying the optimizer per communication bucket as each
// all-reduce lands cuts the exposed synchronize+update tail at paper scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "core/lightseq2.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using core::StepTimes;
using layers::System;

layers::ParamRegistry make_params(DType dtype, bool contiguous, uint64_t seed = 1) {
  layers::ParamRegistry reg;
  reg.declare("w1", Shape{32, 16}, layers::Init::kXavier);
  reg.declare("b1", Shape{32}, layers::Init::kZero);
  reg.declare("w2", Shape{8, 32}, layers::Init::kXavier);
  reg.declare("gamma", Shape{16}, layers::Init::kOne);
  reg.declare("w3", Shape{48, 8}, layers::Init::kXavier);
  reg.declare("b3", Shape{48}, layers::Init::kZero);
  reg.materialize(dtype, contiguous, Rng(seed));
  return reg;
}

void fill_grads(layers::ParamRegistry& reg, uint64_t seed) {
  Rng rng(seed);
  int i = 0;
  reg.for_each([&](const std::string&, Tensor, Tensor g) {
    rng.fill_normal(g, static_cast<uint64_t>(100 + i++), 0.0f, 0.05f);
  });
}

std::vector<float> all_values(const layers::ParamRegistry& reg) {
  std::vector<float> all;
  reg.for_each([&](const std::string&, Tensor v, Tensor) {
    const auto vec = v.to_vector();
    all.insert(all.end(), vec.begin(), vec.end());
  });
  return all;
}

/// A randomized partition of the flat gradient buffer into param-aligned
/// byte ranges, returned in shuffled order (bucket updates are
/// order-independent).
std::vector<std::pair<size_t, size_t>> random_partition(
    const layers::ParamRegistry& reg, std::mt19937& gen) {
  std::vector<size_t> cuts{0, reg.flat_grad_bytes()};
  std::bernoulli_distribution coin(0.5);
  for (int i = 1; i < reg.size(); ++i) {
    if (coin(gen)) cuts.push_back(reg.grad_byte_span(i).first);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) ranges.push_back({cuts[i], cuts[i + 1]});
  std::shuffle(ranges.begin(), ranges.end(), gen);
  return ranges;
}

struct Ctx {
  Ctx() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 3) {}
  simgpu::Device dev;
  kern::KernelContext kc;
};

// The tentpole invariant: for every trainer, a full step equals the sum of
// its bucket updates bitwise — for Adam and SGD, FP32 and FP16 models, and
// randomized bucket partitions applied in randomized order.
TEST(StepRangeTest, BucketedUpdateBitwiseMatchesMonolithic) {
  for (int which = 0; which < 3; ++which) {
    for (optim::Algo algo : {optim::Algo::kAdam, optim::Algo::kSgd}) {
      for (DType dt : {DType::kF32, DType::kF16}) {
        const bool contiguous = which == 2;  // LS2 needs the workspace
        Ctx ca, cb;
        layers::ParamRegistry ra = make_params(dt, contiguous);
        layers::ParamRegistry rb = make_params(dt, contiguous);
        optim::OptimConfig cfg;
        cfg.algo = algo;
        cfg.lr = 0.01f;
        std::unique_ptr<optim::Optimizer> oa, ob;
        auto make = [&](layers::ParamRegistry& r) -> std::unique_ptr<optim::Optimizer> {
          if (which == 0) return std::make_unique<optim::TorchTrainer>(r, cfg);
          if (which == 1) return std::make_unique<optim::ApexTrainer>(r, cfg);
          return std::make_unique<optim::LightSeq2Trainer>(r, cfg);
        };
        oa = make(ra);
        ob = make(rb);
        std::mt19937 gen(1234u + static_cast<unsigned>(which * 10) +
                         (algo == optim::Algo::kAdam ? 0 : 100) +
                         (dt == DType::kF16 ? 1000 : 0));
        for (int step = 0; step < 3; ++step) {
          fill_grads(ra, static_cast<uint64_t>(step));
          fill_grads(rb, static_cast<uint64_t>(step));
          oa->step(ca.kc);  // monolithic
          ob->begin_step();  // randomized bucket cover
          for (const auto& [lo, hi] : random_partition(rb, gen)) {
            ob->step_range(cb.kc, lo, hi);
          }
          ob->end_step();
          const auto va = all_values(ra);
          const auto vb = all_values(rb);
          ASSERT_EQ(va.size(), vb.size());
          for (size_t i = 0; i < va.size(); ++i) {
            ASSERT_EQ(va[i], vb[i])
                << "trainer " << oa->name() << " algo "
                << (algo == optim::Algo::kAdam ? "adam" : "sgd") << " dtype "
                << dtype_name(dt) << " step " << step << " element " << i;
          }
        }
        EXPECT_EQ(oa->steps_taken(), ob->steps_taken());
      }
    }
  }
}

// End-to-end: a pipelined train_step (per-bucket updates as transfers land)
// leaves parameters bitwise identical to the serial synchronize-then-update
// schedule.
TEST(PipelinedTrainStepTest, ParamsBitwiseMatchUnpipelined) {
  models::TransformerConfig cfg;
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 16;
  cfg.dropout = cfg.attn_dropout = cfg.act_dropout = 0.0f;

  data::MtDataset ds(32, 32, 3, 7, 5);
  auto batches = data::make_mt_batches(ds, 48, DType::kF32);
  ASSERT_GE(batches.size(), 2u);

  auto run = [&](bool pipelined) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    auto session = std::make_unique<Session>(sc);
    auto model = std::make_unique<models::Transformer>(cfg, System::kLightSeq2,
                                                       DType::kF32, /*seed=*/3);
    optim::OptimConfig ocfg;
    ocfg.lr = 1e-3f;
    auto trainer = std::make_unique<optim::LightSeq2Trainer>(model->params(), ocfg);
    dist::ClusterConfig cluster{8, 1};
    cluster.pipeline_update = pipelined;
    for (int step = 0; step < 3; ++step) {
      auto [times, res] = core::train_step(*session, *model,
                                           batches[static_cast<size_t>(step) % 2],
                                           *trainer, cluster);
      // Stage identity must hold in the pipelined schedule too.
      EXPECT_NEAR(times.total_us(),
                  times.forward_us + times.backward_us + times.sync_us + times.update_us,
                  1e-9);
      if (pipelined) EXPECT_GE(times.update_overlapped_us, 0.0);
    }
    return std::make_pair(std::move(session), std::move(model));
  };

  auto [sa, ma] = run(true);
  auto [sb, mb] = run(false);
  EXPECT_EQ(dist::find_divergence({&ma->params(), &mb->params()}), "");
}

TEST(BucketDoneCallbackTest, FiresOncePerBucketInCompletionOrder) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 16;
  models::Transformer model(cfg, System::kLightSeq2, DType::kF32, 1);

  // A near-zero ring latency keeps the rings cheap; a 4 KB cap forces
  // several buckets even for this small model.
  simgpu::DeviceProfile profile = simgpu::generic();
  profile.allreduce_latency_us = 1e-3;
  simgpu::Device dev(profile, simgpu::ExecMode::kModelOnly);
  dist::ClusterConfig cluster{8, 2};
  cluster.wire_dtype = DType::kF16;

  dist::OverlapScheduler sched(model.params(), dev, cluster,
                               dist::BucketPlan(model.params(), 4096));
  ASSERT_GT(sched.plan().size(), 2);
  sched.finish();
  std::vector<std::pair<int, double>> seen;  // (bucket index, completion time)
  int64_t covered = 0;
  for (const dist::Landing& l : sched.landings()) {
    seen.push_back({l.bucket.index, l.done_us});
    covered += l.bucket.bytes();
  }

  EXPECT_EQ(static_cast<int>(seen.size()), sched.plan().size());
  for (size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_LE(seen[i].second, seen[i + 1].second) << "completion order broke at " << i;
  }
  EXPECT_EQ(covered, static_cast<int64_t>(model.params().flat_grad_bytes()));
  // FP16 wire halves the payload of this FP32 model.
  EXPECT_EQ(sched.wire_bytes(),
            static_cast<int64_t>(model.params().flat_grad_bytes()) / 2);
}

TEST(WireDtypeTest, PayloadBytesAndRounding) {
  EXPECT_EQ(dist::wire_payload_bytes(400, DType::kF32, DType::kF32), 400);
  EXPECT_EQ(dist::wire_payload_bytes(400, DType::kF32, DType::kF16), 200);
  EXPECT_EQ(dist::wire_payload_bytes(200, DType::kF16, DType::kF16), 200);
  EXPECT_EQ(dist::wire_payload_bytes(200, DType::kF16, DType::kF32), 400);

  // FP16 wire: every replica converges to the same value, close to (but not
  // necessarily bitwise equal to) the lossless FP32-wire average.
  Tensor a16 = Tensor::from_vector({1.0f, 0.3333333f, -2.5f, 0.0f}, {4}, DType::kF32);
  Tensor b16 = Tensor::from_vector({3.0f, 0.6666666f, 1.5f, 1e-4f}, {4}, DType::kF32);
  Tensor a32 = Tensor::from_vector(a16.to_vector(), {4}, DType::kF32);
  Tensor b32 = Tensor::from_vector(b16.to_vector(), {4}, DType::kF32);
  dist::allreduce_average({a16, b16}, DType::kF16);
  dist::allreduce_average({a32, b32}, DType::kF32);
  EXPECT_EQ(a16.to_vector(), b16.to_vector());
  const auto va = a16.to_vector(), vr = a32.to_vector();
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i], vr[i], 2e-3f * (1.0f + std::abs(vr[i]))) << i;
  }
}

TEST(WireDtypeTest, Fp16WireReplicasStayIdentical) {
  // Replicas synced over an FP16 wire still agree bitwise with EACH OTHER
  // after sync + identical updates — the data-parallel invariant survives
  // the compressed wire (only the absolute values shift by the rounding).
  layers::ParamRegistry r0 = make_params(DType::kF16, true, 7);
  layers::ParamRegistry r1 = make_params(DType::kF16, true, 7);
  optim::OptimConfig cfg;
  optim::LightSeq2Trainer t0(r0, cfg), t1(r1, cfg);
  Ctx c;
  for (int step = 0; step < 3; ++step) {
    fill_grads(r0, static_cast<uint64_t>(10 + step));
    fill_grads(r1, static_cast<uint64_t>(20 + step));  // different local grads
    dist::sync_gradients({&r0, &r1}, DType::kF16);
    const auto g0 = r0.flat_grads().to_vector();
    const auto g1 = r1.flat_grads().to_vector();
    ASSERT_EQ(g0, g1) << "step " << step;
    t0.step(c.kc);
    t1.step(c.kc);
    EXPECT_EQ(dist::find_divergence({&r0, &r1}), "") << "step " << step;
  }
}

TEST(GradScalerTest, GrowthAndBackoff) {
  optim::GradScalerConfig cfg;
  cfg.init_scale = 1024.0f;
  cfg.growth_interval = 3;
  optim::GradScaler scaler(cfg);
  EXPECT_FLOAT_EQ(scaler.scale(), 1024.0f);
  scaler.update(false);
  scaler.update(false);
  EXPECT_FLOAT_EQ(scaler.scale(), 1024.0f);  // streak not complete yet
  scaler.update(false);
  EXPECT_FLOAT_EQ(scaler.scale(), 2048.0f);  // grew after 3 clean steps
  scaler.update(true);
  EXPECT_FLOAT_EQ(scaler.scale(), 1024.0f);  // backoff on overflow
  EXPECT_EQ(scaler.overflow_steps(), 1);
  scaler.update(false);
  scaler.update(false);
  scaler.update(true);  // overflow resets the clean streak
  EXPECT_FLOAT_EQ(scaler.scale(), 512.0f);

  // The scale never collapses below min_scale.
  for (int i = 0; i < 64; ++i) scaler.update(true);
  EXPECT_GE(scaler.scale(), cfg.min_scale);
}

TEST(GradScalerTest, LightSeq2TrainerSkipsOverflowedStepAndBacksOff) {
  Ctx c;
  layers::ParamRegistry reg = make_params(DType::kF32, true);
  optim::OptimConfig cfg;
  cfg.dynamic_loss_scale = true;
  cfg.scaler.init_scale = 1.0f;  // grads below are unscaled
  cfg.scaler.min_scale = 0.25f;
  cfg.scaler.growth_interval = 2;
  optim::LightSeq2Trainer trainer(reg, cfg);
  ASSERT_NE(trainer.scaler(), nullptr);

  const auto before = all_values(reg);
  fill_grads(reg, 1);
  reg.grad({0}).data<float>()[0] = std::numeric_limits<float>::infinity();
  trainer.step(c.kc);
  EXPECT_EQ(all_values(reg), before);  // whole step skipped
  EXPECT_FLOAT_EQ(trainer.scaler()->scale(), 0.5f);
  EXPECT_EQ(trainer.scaler()->overflow_steps(), 1);

  // Clean steps update parameters and eventually regrow the scale.
  fill_grads(reg, 2);
  trainer.step(c.kc);
  EXPECT_NE(all_values(reg), before);
  fill_grads(reg, 3);
  trainer.step(c.kc);
  EXPECT_FLOAT_EQ(trainer.scaler()->scale(), 1.0f);
}

TEST(GradScalerTest, RangeGranularSkipOnlyPoisonedBucket) {
  Ctx c;
  layers::ParamRegistry reg = make_params(DType::kF32, true);
  optim::OptimConfig cfg;
  cfg.dynamic_loss_scale = true;
  cfg.scaler.init_scale = 1.0f;
  optim::LightSeq2Trainer trainer(reg, cfg);

  fill_grads(reg, 1);
  // Poison only the FIRST param's gradient; split the flat buffer at the
  // third param so the two ranges are [params 0-2) | [params 2-n).
  reg.grad({0}).data<float>()[0] = std::numeric_limits<float>::quiet_NaN();
  const size_t split = reg.grad_byte_span(2).first;
  const auto before = all_values(reg);

  trainer.begin_step();
  trainer.step_range(c.kc, 0, split);
  trainer.step_range(c.kc, split, reg.flat_grad_bytes());
  trainer.end_step();

  const auto after = all_values(reg);
  // The poisoned front range is untouched; the clean tail range moved.
  const int64_t split_elems = static_cast<int64_t>(split) / 4;
  bool front_same = true, tail_moved = false;
  const auto v0 = reg.value({0}).to_vector();
  for (size_t i = 0; i < v0.size(); ++i) front_same &= v0[i] == before[i];
  const auto last = reg.value({reg.size() - 1}).to_vector();
  (void)split_elems;
  for (size_t i = 0; i < last.size(); ++i) {
    tail_moved |= last[i] != before[before.size() - last.size() + i];
  }
  EXPECT_TRUE(front_same);
  EXPECT_TRUE(tail_moved);
  // The scaler still sees the step as overflowed.
  EXPECT_EQ(trainer.scaler()->overflow_steps(), 1);
}

// End-to-end loss-scale wiring: train_step tells the criterion to multiply
// the trainer's expected scale into the backward seed, and the trainer
// divides it back out — a power-of-two round trip that is exact in FP32, so
// dynamically-scaled training is bitwise identical to unscaled training.
TEST(GradScalerTest, ScaledTrainingBitwiseMatchesUnscaledInF32) {
  models::TransformerConfig cfg;
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 16;
  cfg.dropout = cfg.attn_dropout = cfg.act_dropout = 0.0f;

  data::MtDataset ds(32, 32, 3, 7, 5);
  auto batches = data::make_mt_batches(ds, 48, DType::kF32);

  auto run = [&](bool dynamic) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    auto session = std::make_unique<Session>(sc);
    auto model = std::make_unique<models::Transformer>(cfg, System::kLightSeq2,
                                                       DType::kF32, /*seed=*/3);
    optim::OptimConfig ocfg;
    ocfg.lr = 1e-3f;
    ocfg.dynamic_loss_scale = dynamic;
    ocfg.scaler.init_scale = 1024.0f;
    auto trainer = std::make_unique<optim::LightSeq2Trainer>(model->params(), ocfg);
    for (int step = 0; step < 3; ++step) {
      (void)core::train_step(*session, *model, batches[static_cast<size_t>(step) % 2],
                             *trainer, dist::ClusterConfig{8, 1});
    }
    return std::make_pair(std::move(session), std::move(model));
  };

  auto [ss, ms] = run(true);
  auto [su, mu] = run(false);
  EXPECT_EQ(dist::find_divergence({&ms->params(), &mu->params()}), "");
}

// The acceptance-criterion claim: at paper scale (Transformer-Big on 2x8
// A100, FP16), pipelined per-bucket updates + FP16 wire cut the exposed
// synchronize+update tail by >= 25% vs the PR-1 overlap baseline
// (serial monolithic update, FP32 wire).
TEST(PipelinedTrainStepTest, CutsExposedSyncPlusUpdateAtPaperScale) {
  const auto profile = simgpu::a100();
  const auto cfg = models::TransformerConfig::big(6, 6);

  auto run = [&](bool pipelined, DType wire) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.profile = profile;
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.dtype = DType::kF16;
    Session session(sc);
    models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 17,
                              session.param_alloc());
    optim::OptimConfig ocfg;
    auto trainer = optim::make_trainer(System::kLightSeq2, model.params(), ocfg,
                                       session.param_alloc());
    dist::ClusterConfig cluster{8, 2};
    cluster.pipeline_update = pipelined;
    cluster.wire_dtype = wire;
    data::MtDataset ds(cfg.vocab, 64, 10, 40, 5);
    auto batches = data::make_mt_batches(ds, 4096, DType::kF16);
    (void)core::train_step(session, model, batches[0], *trainer, cluster);  // warm-up
    auto [times, res] = core::train_step(session, model, batches[0], *trainer, cluster);
    return times;
  };

  const StepTimes base = run(false, DType::kF32);   // PR-1 schedule
  const StepTimes pipe32 = run(true, DType::kF32);  // pipelined update only
  const StepTimes pipe16 = run(true, DType::kF16);  // + FP16 wire

  // FP16 wire halves the payload and the blocking-equivalent ring time.
  EXPECT_EQ(pipe16.wire_bytes, base.wire_bytes / 2);
  EXPECT_NEAR(pipe16.sync_blocking_us, base.sync_blocking_us / 2,
              base.sync_blocking_us * 0.01);

  // Compute stages are identical; only the tail changes.
  EXPECT_NEAR(pipe16.forward_us, base.forward_us, 1e-6);
  EXPECT_NEAR(pipe16.backward_us, base.backward_us, 1e-6);

  const double base_tail = base.sync_us + base.update_us;
  const double pipe32_tail = pipe32.sync_us + pipe32.update_us;
  const double pipe16_tail = pipe16.sync_us + pipe16.update_us;
  EXPECT_LT(pipe32_tail, base_tail);  // pipelining alone already helps
  EXPECT_LE(pipe16_tail, pipe32_tail + 1e-6);
  EXPECT_LE(pipe16_tail, 0.75 * base_tail)
      << "exposed sync+update dropped only "
      << 100.0 * (1.0 - pipe16_tail / base_tail) << "%";
  EXPECT_GT(pipe16.update_overlapped_us, 0.0);
  EXPECT_LE(pipe16.update_overlapped_us, pipe16.update_us + 1e-9);
}

}  // namespace
}  // namespace ls2
