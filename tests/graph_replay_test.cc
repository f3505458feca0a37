// Step-graph capture & replay (SessionConfig::graph_capture).
//
// The contract, in order of importance:
//  1. Replay NEVER changes numerics: a graph-enabled session produces
//     bitwise the losses, parameters, and dropout masks of an eager twin —
//     across all four models, all three trainers, FP32 and FP16. The
//     per-step RNG offset (KernelContext::begin_step_rng) is what makes
//     masks a pure function of (seed, step, site) under replay.
//  2. Replay changes the cost model: the captured region pays one
//     graph-launch overhead instead of a per-kernel gap, which is worth
//     >= 20% of the step at a launch-bound configuration.
//  3. Capture safety is enforced: the caching allocator's device-malloc
//     stalls poison capture with a diagnostic and the session falls back to
//     eager — it never replays a graph whose addresses could dangle.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/lightseq2.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using core::StepTimes;
using layers::System;

float loss_of(const layers::CriterionResult& r) { return r.loss_sum; }
float loss_of(const models::ClsResult& r) { return r.loss; }

std::vector<float> param_values(layers::ParamRegistry& reg) {
  std::vector<float> all;
  reg.for_each([&](const std::string&, Tensor v, Tensor) {
    const auto vec = v.to_vector();
    all.insert(all.end(), vec.begin(), vec.end());
  });
  return all;
}

enum class Trainer { kTorch, kApex, kLS2 };
const char* trainer_name(Trainer t) {
  return t == Trainer::kTorch ? "torch" : t == Trainer::kApex ? "apex" : "lightseq2";
}

/// Arena sizing via the shared core::capacity_scan probe, with generous
/// headroom (2x peak + 1 MB) — these sessions run many execute-mode steps
/// and the test must never OOM for sizing reasons.
template <typename MakeModel, typename Batch>
size_t probe_arena(MakeModel make_model, const Batch& batch, DType dt) {
  core::CapacityScanOptions opt;
  opt.seed = 11;
  opt.headroom = 1.0;
  return core::capacity_scan(
             [&](BufferAllocator* alloc) { return make_model(dt, alloc); }, batch, opt) +
         (1u << 20);
}

struct StepRun {
  std::vector<float> losses;
  std::vector<bool> replayed;
  std::vector<float> params;
  bool poisoned = false;
};

template <typename MakeModel, typename Batch>
StepRun run_steps(MakeModel make_model, const Batch& batch, Trainer which, DType dt,
              bool graph, int steps, size_t arena_bytes) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = dt;
  sc.arena_bytes = arena_bytes;
  sc.graph_capture = graph;
  Session session(sc);
  auto model = make_model(dt, session.param_alloc());
  optim::OptimConfig ocfg;
  ocfg.lr = 0.01f;
  std::unique_ptr<optim::Optimizer> trainer;
  switch (which) {
    case Trainer::kTorch:
      trainer = std::make_unique<optim::TorchTrainer>(model->params(), ocfg);
      break;
    case Trainer::kApex:
      trainer = std::make_unique<optim::ApexTrainer>(model->params(), ocfg);
      break;
    case Trainer::kLS2:
      trainer = std::make_unique<optim::LightSeq2Trainer>(model->params(), ocfg);
      break;
  }
  StepRun run;
  for (int i = 0; i < steps; ++i) {
    auto [times, res] = core::train_step(session, *model, batch, *trainer);
    run.losses.push_back(loss_of(res));
    run.replayed.push_back(times.replayed);
  }
  run.params = param_values(model->params());
  run.poisoned = session.graph_poisoned();
  return run;
}

/// The bitwise eager-vs-replay property for one model family. `batch_for`
/// builds the batch for a given model dtype (only ViT's patch tensor is
/// dtype-sensitive; token batches are i32 throughout).
template <typename MakeModel, typename BatchFor>
void expect_replay_bitwise(const char* family, MakeModel make_model, BatchFor batch_for) {
  constexpr int kSteps = 5;
  for (Trainer which : {Trainer::kTorch, Trainer::kApex, Trainer::kLS2}) {
    for (DType dt : {DType::kF32, DType::kF16}) {
      const auto batch = batch_for(dt);
      const size_t arena = probe_arena(make_model, batch, dt);
      const StepRun eager = run_steps(make_model, batch, which, dt, false, kSteps, arena);
      const StepRun replay = run_steps(make_model, batch, which, dt, true, kSteps, arena);
      SCOPED_TRACE(std::string(family) + " / " + trainer_name(which) + " / " +
                   dtype_name(dt));
      ASSERT_FALSE(replay.poisoned);
      // Warm-up step 0 eager, step 1 captured-while-executing, 2+ replayed.
      EXPECT_FALSE(replay.replayed[0]);
      EXPECT_FALSE(replay.replayed[1]);
      for (int i = 2; i < kSteps; ++i) EXPECT_TRUE(replay.replayed[i]) << "step " << i;
      for (int i = 0; i < kSteps; ++i) EXPECT_FALSE(eager.replayed[i]);
      // Losses bitwise identical per step (dropout masks included — a mask
      // divergence would change the loss immediately).
      for (int i = 0; i < kSteps; ++i) {
        ASSERT_EQ(eager.losses[i], replay.losses[i]) << "loss at step " << i;
      }
      // Parameters bitwise identical after all updates.
      ASSERT_EQ(eager.params.size(), replay.params.size());
      for (size_t i = 0; i < eager.params.size(); ++i) {
        ASSERT_EQ(eager.params[i], replay.params[i]) << "param element " << i;
      }
    }
  }
}

TEST(GraphReplayBitwise, Transformer) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 32;
  data::MtDataset ds(cfg.vocab, 16, 3, 9, 5);
  const auto batch = data::make_mt_batches(ds, 64, DType::kF32).front();
  expect_replay_bitwise("transformer", [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Transformer>(cfg, System::kLightSeq2, dt, 7, alloc);
  }, [&](DType) { return batch; });
}

TEST(GraphReplayBitwise, Bert) {
  models::BertConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 32;
  data::ClsDataset ds(cfg.vocab, 32, 12, 3);
  const auto batch = ds.batch(0, 4, 12);
  expect_replay_bitwise("bert", [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Bert>(cfg, System::kLightSeq2, dt, 7, alloc);
  }, [&](DType) { return batch; });
}

TEST(GraphReplayBitwise, Gpt2) {
  models::Gpt2Config cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 32;
  data::LmDataset ds(cfg.vocab, 512, 3);
  const auto batch = ds.batch(0, 4, 12);
  expect_replay_bitwise("gpt2", [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Gpt2>(cfg, System::kLightSeq2, dt, 7, alloc);
  }, [&](DType) { return batch; });
}

TEST(GraphReplayBitwise, Vit) {
  models::VitConfig cfg;
  cfg.image = 64;
  cfg.patch = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.num_classes = 4;
  data::ImageDataset ds(cfg.num_classes, 32, 3);
  expect_replay_bitwise("vit", [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Vit>(cfg, System::kLightSeq2, dt, 7, alloc);
  }, [&](DType dt) { return ds.batch(0, 4, cfg, dt); });
}

// The perf claim: at a launch-bound configuration (deep model, small
// per-GPU batch) the replayed step is >= 20% faster than the eager step.
TEST(GraphReplaySpeedup, LaunchBoundConfigGainsAtLeast20Percent) {
  const auto cfg = models::TransformerConfig::base(12, 12);
  data::MtDataset ds(cfg.vocab, 64, 8, 24, 17);
  const auto batch = data::largest_batch(data::make_mt_batches(ds, 512, DType::kF16));

  auto make = [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Transformer>(cfg, System::kLightSeq2, dt, 17, alloc);
  };
  auto step_time = [&](bool graph) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.dtype = DType::kF16;
    sc.arena_bytes = probe_arena(make, batch, DType::kF16);
    sc.graph_capture = graph;
    Session session(sc);
    models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 17,
                              session.param_alloc());
    optim::OptimConfig ocfg;
    optim::LightSeq2Trainer trainer(model.params(), ocfg, session.param_alloc());
    (void)core::train_step(session, model, batch, trainer);  // warm-up
    if (graph) {
      (void)core::train_step(session, model, batch, trainer);  // capture
      EXPECT_NE(session.step_graph(), nullptr) << session.graph_poison_reason();
    }
    const double t0 = session.device().clock_us();
    auto [times, res] = core::train_step(session, model, batch, trainer);
    EXPECT_EQ(times.replayed, graph);
    return session.device().clock_us() - t0;
  };

  const double eager_us = step_time(false);
  const double replay_us = step_time(true);
  EXPECT_LT(replay_us, eager_us * 0.80)
      << "eager " << eager_us << " us vs replay " << replay_us
      << " us — expected >= 20% improvement at a launch-bound config";
}

// Replay must not break stage accounting: the four stages still sum to the
// step total and the replayed region's time lands in the right ranges.
TEST(GraphReplaySpeedup, StageTimesStillSumUnderReplay) {
  const auto cfg = models::TransformerConfig::base(2, 2);
  data::MtDataset ds(cfg.vocab, 32, 8, 16, 9);
  const auto batch = data::largest_batch(data::make_mt_batches(ds, 256, DType::kF16));
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.arena_bytes = 256u << 20;
  sc.graph_capture = true;
  Session session(sc);
  models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 17,
                            session.param_alloc());
  optim::OptimConfig ocfg;
  optim::LightSeq2Trainer trainer(model.params(), ocfg, session.param_alloc());
  const dist::ClusterConfig cluster{4, 1};  // pipelined update composes
  for (int i = 0; i < 4; ++i) {
    const double t0 = session.device().clock_us();
    auto [times, res] = core::train_step(session, model, batch, trainer, cluster);
    const double wall = session.device().clock_us() - t0;
    EXPECT_NEAR(times.total_us(), wall, 1e-6) << "step " << i;
    EXPECT_EQ(times.replayed, i >= 2) << "step " << i;
  }
  // Replayed steps paid zero per-kernel launch gap and one graph launch.
  const auto& stats = session.device().stats();
  EXPECT_EQ(stats.graph_replays, 2);
  EXPECT_GT(stats.replayed_launches, 0);
  EXPECT_NEAR(stats.graph_launch_us,
              2 * session.device().profile().graph_launch_overhead_us, 1e-9);
}

// Capture safety: a session on the dynamic caching allocator (no arena)
// poisons capture at its first device-malloc stall, logs the reason, and
// keeps training eagerly with unchanged numerics.
TEST(GraphCaptureSafety, CachingAllocatorStallPoisonsCapture) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 32;
  data::MtDataset ds(cfg.vocab, 16, 3, 9, 5);
  const auto batch = data::make_mt_batches(ds, 64, DType::kF32).front();

  auto make = [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Transformer>(cfg, System::kLightSeq2, dt, 7, alloc);
  };

  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.graph_capture = true;
  sc.graph_warmup_steps = 0;  // capture the FIRST step: the cache is cold
  Session session(sc);
  EXPECT_FALSE(session.graph_capture_supported());  // no arena
  auto model = make(DType::kF32, session.param_alloc());
  optim::OptimConfig ocfg;
  ocfg.lr = 0.01f;  // match run_steps below
  optim::LightSeq2Trainer trainer(model->params(), ocfg);

  std::vector<float> losses;
  for (int i = 0; i < 3; ++i) {
    auto [times, res] = core::train_step(session, *model, batch, trainer);
    EXPECT_FALSE(times.replayed) << "step " << i;
    losses.push_back(res.loss_sum);
  }
  EXPECT_TRUE(session.graph_poisoned());
  EXPECT_EQ(session.step_graph(), nullptr);
  EXPECT_NE(session.graph_poison_reason().find("allocator stall"), std::string::npos)
      << session.graph_poison_reason();

  // Numerics are untouched by the failed capture: an eager arena session
  // yields bitwise the same losses.
  const size_t arena = probe_arena(make, batch, DType::kF32);
  const StepRun eager = run_steps(make, batch, Trainer::kLS2, DType::kF32, false, 3, arena);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(eager.losses[i], losses[i]) << "step " << i;
}

// A captured step freezes its gradient buckets: the rings are graph nodes,
// so every replay enqueues the captured plan's rings, whatever the planner
// has measured since (DESIGN.md §3).
TEST(GraphReplayBuckets, CapturedPlanIsFrozenForEveryReplay) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 32;
  data::MtDataset ds(cfg.vocab, 16, 3, 9, 5);
  const auto batch = data::make_mt_batches(ds, 64, DType::kF32).front();
  auto make = [&](DType dt, BufferAllocator* alloc) {
    return std::make_unique<models::Transformer>(cfg, System::kLightSeq2, dt, 7, alloc);
  };
  // Slow links and cheap ring latency: splitting pays even at this size, so
  // the planned buckets differ from the one cold-start bucket.
  simgpu::DeviceProfile profile = simgpu::a100();
  profile.nvlink_bus_gb_s = 0.01;
  profile.allreduce_latency_us = 1.0;
  const dist::ClusterConfig cluster{8, 1};
  const size_t arena = probe_arena(make, batch, DType::kF32);

  auto run = [&](bool graph) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.profile = profile;
    sc.arena_bytes = arena;
    sc.graph_capture = graph;
    Session session(sc);
    auto model = make(DType::kF32, session.param_alloc());
    optim::OptimConfig ocfg;
    ocfg.lr = 0.01f;
    optim::LightSeq2Trainer trainer(model->params(), ocfg);
    StepRun out;
    for (int i = 0; i < 5; ++i) {
      const int64_t transfers0 = session.device().stats().comm_transfers;
      auto [times, res] = core::train_step(session, *model, batch, trainer, cluster);
      out.losses.push_back(loss_of(res));
      out.replayed.push_back(times.replayed);
      if (!graph) continue;
      const std::vector<dist::BucketPlan>& frozen = session.bucket_memo.frozen;
      if (i == 0) {
        EXPECT_TRUE(frozen.empty());
      } else {
        EXPECT_EQ(frozen.size(), 1u) << "step " << i;
      }
      if (i >= 2 && frozen.size() == 1) {
        EXPECT_EQ(session.device().stats().comm_transfers - transfers0, frozen[0].size())
            << "step " << i;
      }
      if (i == 1) {
        // Captured with planned buckets, not the cold start's one.
        EXPECT_GT(frozen.front().size(), 1);
        // Forget the measurement: a replay that re-planned would fall back
        // to the cold start, and its rings would no longer match the graph.
        session.bucket_memo.lanes.clear();
      }
    }
    out.params = param_values(model->params());
    out.poisoned = session.graph_poisoned();
    return out;
  };

  const StepRun eager = run(false);
  const StepRun replay = run(true);
  ASSERT_FALSE(replay.poisoned);
  EXPECT_FALSE(replay.replayed[0]);
  EXPECT_FALSE(replay.replayed[1]);
  for (int i = 2; i < 5; ++i) EXPECT_TRUE(replay.replayed[i]) << "step " << i;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(eager.losses[i], replay.losses[i]) << "step " << i;
  ASSERT_EQ(eager.params.size(), replay.params.size());
  for (size_t i = 0; i < eager.params.size(); ++i) {
    ASSERT_EQ(eager.params[i], replay.params[i]) << "param element " << i;
  }
}

// The arena is the certified capture-safe strategy.
TEST(GraphCaptureSafety, ArenaSessionIsCaptureSafe) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.arena_bytes = 1u << 20;
  Session session(sc);
  EXPECT_TRUE(session.graph_capture_supported());
}

}  // namespace
}  // namespace ls2
