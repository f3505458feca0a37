// Pipeline parallelism (DESIGN.md §9).
//
// The contract, in order of importance:
//  1. PARITY — an FP32 PP=k run (1F1B microbatch schedule, m=4) produces
//     bitwise the losses AND the final parameters of the single-stage run
//     seeded identically, for all four models, multi-step, WITH dropout on.
//     Microbatch gradient accumulation in ascending order over
//     accumulate-into-destination kernels IS the full-batch reduction.
//  2. SCHEDULE — the 1F1B solver reproduces the analytic bubble fraction
//     (pp-1)/(m+pp-1) on uniform stages and orders chunks per 1F1B.
//  3. HYBRID — PP composes with DP (per-stage bucket rings) and with TP
//     (2 nodes x 4 GPUs = DP2 x PP2 x TP2), numerics unchanged.
//  4. GRAPHS — capture/replay still holds bitwise across microbatches.
//  5. GROUPS — the 3-axis rank split is orthogonal, PP neighbors are
//     adjacent ranks (NVLink before fabric), bad shapes are rejected with
//     actionable messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/lightseq2.h"
#include "dist/pipeline.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;

dist::ClusterConfig pp_cluster(int pp, int m, int dp = 1, int tp = 1) {
  dist::ClusterConfig c;
  c.gpus_per_node = dp * tp * pp;
  c.nodes = 1;
  c.tensor_parallel = tp;
  c.pipeline_parallel = pp;
  c.microbatches = m;
  return c;
}

// ---------------------------------------------------------------------------
// Process-group triple split (DP x PP x TP)
// ---------------------------------------------------------------------------

TEST(ProcessGroup3dTest, TripleSplitIsOrthogonal) {
  dist::ClusterConfig c;
  c.gpus_per_node = 4;
  c.nodes = 2;
  c.tensor_parallel = 2;
  c.pipeline_parallel = 2;
  c.microbatches = 4;
  dist::ProcessGroup pg(c);
  EXPECT_EQ(pg.tp_size(), 2);
  EXPECT_EQ(pg.pp_size(), 2);
  EXPECT_EQ(pg.dp_size(), 2);
  EXPECT_EQ(pg.world_size(), 8);

  // rank = ((dp * pp_size) + pp) * tp_size + tp, and the accessors invert it.
  for (int dp = 0; dp < 2; ++dp) {
    for (int pp = 0; pp < 2; ++pp) {
      for (int tp = 0; tp < 2; ++tp) {
        const int r = pg.rank_of(dp, pp, tp);
        EXPECT_EQ(pg.dp_rank(r), dp);
        EXPECT_EQ(pg.pp_rank(r), pp);
        EXPECT_EQ(pg.tp_rank(r), tp);
      }
    }
  }

  // The three groups through any rank intersect only at that rank.
  for (int r = 0; r < pg.world_size(); ++r) {
    const auto tpg = pg.tp_group_ranks(r);
    const auto ppg = pg.pp_group_ranks(r);
    const auto dpg = pg.dp_group_ranks(r);
    EXPECT_EQ(tpg.size(), 2u);
    EXPECT_EQ(ppg.size(), 2u);
    EXPECT_EQ(dpg.size(), 2u);
    for (int a : tpg) {
      for (int b : ppg) {
        if (a == b) EXPECT_EQ(a, r);
      }
      for (int b : dpg) {
        if (a == b) EXPECT_EQ(a, r);
      }
    }
    for (int a : ppg) {
      for (int b : dpg) {
        if (a == b) EXPECT_EQ(a, r);
      }
    }
  }

  // PP neighbors are ADJACENT rank blocks (stride = tp): one replica fills
  // one node here, so the boundary send stays on NVLink while the DP ring
  // is the one that crosses the fabric.
  EXPECT_EQ(pg.pp_group_ranks(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(pg.node_of(pg.rank_of(0, 0, 0)), pg.node_of(pg.rank_of(0, 1, 0)));
  EXPECT_NE(pg.node_of(pg.rank_of(0, 0, 0)), pg.node_of(pg.rank_of(1, 0, 0)));
  const simgpu::DeviceProfile prof = simgpu::v100();
  const int64_t bytes = 8 * 1024 * 1024;
  // Same-node p2p (NVLink) is strictly cheaper than cross-node (fabric).
  EXPECT_LT(pg.send_us(bytes, pg.rank_of(0, 0, 0), pg.rank_of(0, 1, 0), prof),
            pg.send_us(bytes, pg.rank_of(0, 0, 0), pg.rank_of(1, 0, 0), prof));
  EXPECT_DOUBLE_EQ(pg.stage_send_us(bytes, 0, prof),
                   pg.send_us(bytes, pg.rank_of(0, 0, 0), pg.rank_of(0, 1, 0), prof));
}

TEST(ProcessGroup3dTest, InvalidShapesAreRejectedWithClearMessages) {
  // dp x tp x pp must tile world_size.
  dist::ClusterConfig c;
  c.gpus_per_node = 4;
  c.nodes = 1;
  c.tensor_parallel = 1;
  c.pipeline_parallel = 3;
  try {
    c.validate();
    FAIL() << "3-stage pipeline on 4 GPUs should not validate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dp x tp x pp"), std::string::npos);
  }

  // Too few microbatches to fill the pipe.
  dist::ClusterConfig u = pp_cluster(4, 2);
  try {
    u.validate();
    FAIL() << "m=2 < pp=4 should not validate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("microbatches"), std::string::npos);
  }

  // TP crossing the node boundary is still rejected with PP present.
  dist::ClusterConfig t;
  t.gpus_per_node = 2;
  t.nodes = 4;
  t.tensor_parallel = 4;
  t.pipeline_parallel = 2;
  EXPECT_THROW(t.validate(), Error);

  // Microbatches without a pipeline would silently become gradient
  // accumulation in the one train-step engine.
  dist::ClusterConfig acc;
  acc.gpus_per_node = 2;
  acc.microbatches = 4;
  try {
    acc.validate();
    FAIL() << "m=4 without pipeline parallelism should not validate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gradient accumulation"), std::string::npos);
  }

  // PP always overlaps its per-stage DP rings and pipelines the update, so
  // asking for the serial schedules is rejected instead of ignored.
  for (const bool overlap : {false, true}) {
    dist::ClusterConfig serial = pp_cluster(2, 4, /*dp=*/2);
    serial.overlap = overlap;
    serial.pipeline_update = !overlap;
    EXPECT_THROW(serial.validate(), Error) << "overlap=" << overlap;
  }

  EXPECT_NO_THROW(pp_cluster(4, 8, /*dp=*/2, /*tp=*/1).validate());
}

// ---------------------------------------------------------------------------
// The 1F1B schedule solver
// ---------------------------------------------------------------------------

TEST(PipelineScheduleTest, UniformTwoStageScheduleIsExact) {
  dist::PipelineScheduleInput in;
  in.stages = 2;
  in.microbatches = 4;
  in.f.assign(2, std::vector<double>(4, 1.0));
  in.b.assign(2, std::vector<double>(4, 1.0));
  in.fwd_p2p_us.assign(1, 0.0);
  in.bwd_p2p_us.assign(1, 0.0);
  const dist::PipelineSchedule s = dist::solve_1f1b(in);

  // Uniform chunks hit the analytic makespan (m + pp - 1) * (f + b) and
  // lane 0's idle is exactly the (pp - 1) * (f + b) bubble.
  EXPECT_DOUBLE_EQ(s.makespan_us, 10.0);
  EXPECT_DOUBLE_EQ(s.lanes[0].busy_us, 8.0);
  EXPECT_DOUBLE_EQ(s.lanes[0].bubble_us, 2.0);
  EXPECT_DOUBLE_EQ(s.lanes[0].comm_idle_us, 0.0);

  // Stage 0 runs 1F1B order: F0 F1 B0 F2 B1 F3 B2 B3 (warm-up depth 1).
  std::vector<std::pair<bool, int>> order;
  for (const auto& ch : s.lanes[0].chunks) order.emplace_back(ch.forward, ch.microbatch);
  const std::vector<std::pair<bool, int>> want = {
      {true, 0}, {true, 1}, {false, 0}, {true, 2},
      {false, 1}, {true, 3}, {false, 2}, {false, 3}};
  EXPECT_EQ(order, want);
  // The last stage's only idle is the (pp - 1) * f pipeline-fill lead-in.
  EXPECT_DOUBLE_EQ(s.lanes[1].bubble_us, 1.0);
}

// The guard the issue asks for: steady-state bubble fraction within 10% of
// the analytic (pp-1)/(m+pp-1) on a comm-free uniform configuration.
TEST(PipelineScheduleTest, BubbleFractionMatchesAnalyticWithinTenPercent) {
  const int pp = 4, m = 8;
  dist::PipelineScheduleInput in;
  in.stages = pp;
  in.microbatches = m;
  in.f.assign(pp, std::vector<double>(m, 100.0));
  in.b.assign(pp, std::vector<double>(m, 100.0));
  in.fwd_p2p_us.assign(pp - 1, 0.0);
  in.bwd_p2p_us.assign(pp - 1, 0.0);
  const dist::PipelineSchedule s = dist::solve_1f1b(in);

  const double analytic = dist::PipelineSchedule::analytic_bubble_fraction(pp, m);
  EXPECT_DOUBLE_EQ(analytic, 3.0 / 11.0);
  const double measured = s.lanes[0].bubble_us / s.makespan_us;
  EXPECT_NEAR(measured, analytic, 0.1 * analytic);

  // More microbatches shrink the bubble (the whole point of 1F1B).
  dist::PipelineScheduleInput wide = in;
  wide.microbatches = 32;
  wide.f.assign(pp, std::vector<double>(32, 100.0));
  wide.b.assign(pp, std::vector<double>(32, 100.0));
  const dist::PipelineSchedule sw = dist::solve_1f1b(wide);
  EXPECT_LT(sw.lanes[0].bubble_us / sw.makespan_us, measured);
}

TEST(PipelineScheduleTest, ExposedP2pIsChargedToTheWaitingLane) {
  dist::PipelineScheduleInput in;
  in.stages = 2;
  in.microbatches = 2;
  in.f.assign(2, std::vector<double>(2, 10.0));
  in.b.assign(2, std::vector<double>(2, 10.0));
  in.fwd_p2p_us.assign(1, 5.0);
  in.bwd_p2p_us.assign(1, 5.0);
  const dist::PipelineSchedule s = dist::solve_1f1b(in);
  // Stage 1 waits on the activation send, stage 0 on the gradient send:
  // both lanes see some idle attributed to comm, not to the bubble alone.
  EXPECT_GT(s.lanes[1].comm_idle_us, 0.0);
  EXPECT_GT(s.lanes[0].comm_idle_us, 0.0);
  EXPECT_GT(s.makespan_us, 40.0);
}

// ---------------------------------------------------------------------------
// BlockStack: stage placement and the stack walk every model runs
// ---------------------------------------------------------------------------

// A block with one parameter and no pass of its own: the walks drive it
// through the per-block step.
struct FakeBlock {
  FakeBlock(layers::ParamRegistry& params, const std::string& name, int64_t width) {
    params.declare(name + ".w", Shape{width}, layers::Init::kZero);
  }
  void release() {}
};

TEST(BlockStackTest, PlacesContiguousRunsAndRejectsMoreStagesThanBlocks) {
  layers::ParamRegistry params;
  params.declare("embed", Shape{4}, layers::Init::kZero);
  layers::BlockStack<FakeBlock> stack(params, "blocks", 5, int64_t{4});
  ASSERT_EQ(stack.size(), 5);
  for (int64_t i = 0; i < stack.size(); ++i) EXPECT_EQ(stack.stage(i), 0);

  layers::PpPlan plan(4);
  stack.place(plan, 1, 3);
  std::vector<int> stages;
  for (int64_t i = 0; i < stack.size(); ++i) stages.push_back(stack.stage(i));
  EXPECT_EQ(stages, (std::vector<int>{1, 1, 2, 2, 3}));
  // Block i is declaration i + 1 (after "embed"); each range joins its
  // block's stage in declaration order.
  std::vector<std::vector<int>> begins(4);
  for (size_t s = 0; s < plan.stage_params.size(); ++s) {
    for (const layers::ParamRange& r : plan.stage_params[s]) {
      EXPECT_EQ(r.end, r.begin + 1);
      begins[s].push_back(r.begin);
    }
  }
  EXPECT_EQ(begins, (std::vector<std::vector<int>>{{}, {1, 2}, {3, 4}, {5}}));

  layers::PpPlan wide(8);
  EXPECT_THROW(stack.place(wide, 0, 6), Error);
  EXPECT_THROW(stack.place(wide, 0, 0), Error);
  EXPECT_THROW(stack.place(plan, 2, 3), Error);  // stages [2, 5) of a 4-stage plan
  EXPECT_THROW((void)layers::PpPlan(0), Error);
}

TEST(BlockStackTest, WalksMarkEveryBoundaryAndReportBlocksGradReadyInReverse) {
  layers::ParamRegistry params;
  layers::BlockStack<FakeBlock> stack(params, "blocks", 5, int64_t{1});
  layers::PpPlan plan(3);
  stack.place(plan, 0, 3);  // stages 0 0 1 1 2

  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  layers::LayerContext ctx(dev, nullptr, layers::policy_for(System::kLightSeq2), 1);
  using Enter = std::tuple<int, bool, int64_t>;  // (stage, forward, payload bytes)
  std::vector<Enter> entered;
  layers::PpHooks hooks;
  hooks.enter = [&](int stage, bool forward, int64_t bytes) {
    entered.emplace_back(stage, forward, bytes);
  };
  ctx.pp = &hooks;
  std::vector<int> ready;
  params.set_grad_ready_callback([&](const layers::ParamRange& r) { ready.push_back(r.begin); });

  // Block i's step returns i + 2 floats, so a boundary's hidden-state bytes
  // name the block that produced them; carried(b) = 1000 b names the
  // boundary's first block on the later stage.
  std::vector<int64_t> order;
  const auto step = [&](FakeBlock&, int64_t i, const Tensor&) {
    order.push_back(i);
    return Tensor::empty({i + 2}, DType::kF32);
  };
  const layers::StackCarry carried = [](int64_t b) { return 1000 * b; };

  const Tensor h = stack.forward(ctx, Tensor::empty({1}, DType::kF32), step, carried);
  EXPECT_EQ(h.numel(), 6);
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  // Entering block 2 (stage 1) carries block 1's output; block 4 (stage 2)
  // block 3's.
  EXPECT_EQ(entered, (std::vector<Enter>{{1, true, 3 * 4 + 2000}, {2, true, 5 * 4 + 4000}}));
  EXPECT_TRUE(ready.empty());

  entered.clear();
  order.clear();
  stack.backward(ctx, Tensor::empty({1}, DType::kF32), step, carried);
  EXPECT_EQ(order, (std::vector<int64_t>{4, 3, 2, 1, 0}));
  // Leaving block 4 enters block 3's stage 1 with block 4's output; leaving
  // block 2 enters stage 0 with block 2's.
  EXPECT_EQ(entered, (std::vector<Enter>{{1, false, 6 * 4 + 4000}, {0, false, 4 * 4 + 2000}}));
  EXPECT_EQ(ready, (std::vector<int>{4, 3, 2, 1, 0}));

  // Without a carry a boundary puts only the hidden state on the wire.
  entered.clear();
  stack.forward(ctx, Tensor::empty({1}, DType::kF32), step);
  EXPECT_EQ(entered, (std::vector<Enter>{{1, true, 3 * 4}, {2, true, 5 * 4}}));
}

// ---------------------------------------------------------------------------
// End-to-end parity: PP=k bitwise equals the single-stage run
// ---------------------------------------------------------------------------

template <typename ResT>
float loss_of(const ResT& res) {
  if constexpr (requires { res.loss_sum; }) {
    return res.loss_sum;
  } else {
    return res.loss;
  }
}

/// The full parity property for one model family: PP in {2, 4} training
/// with m=4 microbatches is bitwise the single-stage run — losses per step
/// AND final parameters — with dropout ON.
template <typename MakeModel, typename Batch>
void expect_pp_parity(const char* family, MakeModel make_model, const Batch& batch) {
  constexpr int kSteps = 3;
  constexpr int kMicrobatches = 4;

  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.seed = 3;
  Session ref_session(sc);
  auto ref_model = make_model(ref_session.param_alloc());
  optim::OptimConfig ocfg;
  ocfg.lr = 0.01f;
  optim::LightSeq2Trainer ref_trainer(ref_model->params(), ocfg);
  std::vector<float> ref_losses;
  for (int i = 0; i < kSteps; ++i) {
    auto [times, res] = core::train_step(ref_session, *ref_model, batch, ref_trainer);
    ref_losses.push_back(loss_of(res));
  }

  for (int pp : {2, 4}) {
    Session session(sc);
    auto model = make_model(session.param_alloc());
    optim::LightSeq2Trainer trainer(model->params(), ocfg);
    const dist::ClusterConfig cluster = pp_cluster(pp, kMicrobatches);
    for (int i = 0; i < kSteps; ++i) {
      auto [times, res] = core::train_step(session, *model, batch, trainer, cluster);
      EXPECT_EQ(loss_of(res), ref_losses[static_cast<size_t>(i)])
          << family << " pp=" << pp << " step " << i << " loss diverged";
      // The 1F1B lane must report a pipeline: stage-0 compute, a bubble,
      // and boundary traffic, all feeding total_us().
      EXPECT_GT(times.forward_us, 0.0) << family << " pp=" << pp;
      EXPECT_GT(times.backward_us, 0.0) << family << " pp=" << pp;
      EXPECT_GT(times.pp_bubble_us, 0.0) << family << " pp=" << pp;
      EXPECT_GT(times.pp_comm_us, 0.0) << family << " pp=" << pp;
      EXPECT_GE(times.total_us(), times.forward_us + times.backward_us +
                                      times.pp_bubble_us + times.pp_exposed_us)
          << family << " pp=" << pp;
    }
    // Final parameters: bitwise, every declaration.
    auto& p = model->params();
    auto& r = ref_model->params();
    ASSERT_EQ(p.size(), r.size());
    for (int i = 0; i < p.size(); ++i) {
      const layers::ParamRef ref{i};
      EXPECT_EQ(std::memcmp(p.value(ref).raw(), r.value(ref).raw(),
                            r.value(ref).bytes()),
                0)
          << family << " pp=" << pp << " param '" << r.name(ref) << "' diverged";
    }
  }
}

models::TransformerConfig small_mt_config() {
  models::TransformerConfig cfg = models::TransformerConfig::base(2, 2);
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.max_len = 64;
  return cfg;
}

/// First `rows` sentence pairs of the largest bucketed batch — PP slices
/// the batch along dim 0, so the test batch must divide by m.
models::MtBatch small_mt_batch(int64_t rows) {
  data::MtDataset ds(small_mt_config().vocab, 64, 6, 12, 13);
  auto batches = data::make_mt_batches(ds, 256, DType::kF32);
  const models::MtBatch& big = data::largest_batch(batches);
  EXPECT_GE(big.src_ids.shape()[0], rows);
  models::MtBatch b = big;
  b.src_ids = big.src_ids.slice(0, rows);
  b.tgt_in = big.tgt_in.slice(0, rows);
  b.tgt_out = big.tgt_out.slice(0, rows);
  b.src_lens = big.src_lens.slice(0, rows);
  b.tgt_lens = big.tgt_lens.slice(0, rows);
  return b;
}

TEST(PpParityTest, TransformerBitwiseAcrossPpDegrees) {
  const models::MtBatch batch = small_mt_batch(4);
  expect_pp_parity("transformer", [&](BufferAllocator* alloc) {
    return std::make_unique<models::Transformer>(small_mt_config(), System::kLightSeq2,
                                                 DType::kF32, 21, alloc);
  }, batch);
}

models::Gpt2Config small_gpt2_config() {
  models::Gpt2Config cfg;
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.layers = 4;  // >= max PP degree: every stage owns at least one block
  cfg.max_len = 64;
  return cfg;
}

TEST(PpParityTest, Gpt2BitwiseAcrossPpDegrees) {
  data::LmDataset ds(64, 4096, 19);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  expect_pp_parity("gpt2", [&](BufferAllocator* alloc) {
    return std::make_unique<models::Gpt2>(small_gpt2_config(), System::kLightSeq2,
                                          DType::kF32, 23, alloc);
  }, batch);
}

TEST(PpParityTest, BertBitwiseAcrossPpDegrees) {
  data::ClsDataset ds(64, 64, 32, 29);
  const models::ClsBatch batch = ds.batch(0, 4, 12);
  expect_pp_parity("bert", [&](BufferAllocator* alloc) {
    models::BertConfig cfg;
    cfg.vocab = 64;
    cfg.hidden = 32;
    cfg.heads = 4;
    cfg.ffn_dim = 64;
    cfg.layers = 4;
    cfg.max_len = 64;
    return std::make_unique<models::Bert>(cfg, System::kLightSeq2, DType::kF32, 31,
                                          alloc);
  }, batch);
}

TEST(PpParityTest, VitBitwiseAcrossPpDegrees) {
  models::VitConfig vcfg;
  vcfg.image = 64;
  vcfg.patch = 16;
  vcfg.hidden = 32;
  vcfg.heads = 4;
  vcfg.ffn_dim = 64;
  vcfg.layers = 4;
  data::ImageDataset ds(10, 64, 37);
  const models::ImageBatch batch = ds.batch(0, 4, vcfg, DType::kF32);
  expect_pp_parity("vit", [&](BufferAllocator* alloc) {
    return std::make_unique<models::Vit>(vcfg, System::kLightSeq2, DType::kF32, 41,
                                         alloc);
  }, batch);
}

// Every model places its blocks through BlockStack::place, so a stage
// count the blocks cannot fill throws instead of leaving a stage empty.
TEST(PpPlanTest, EveryModelRejectsMoreStagesThanBlocks) {
  models::Transformer mt(small_mt_config(), System::kLightSeq2, DType::kF32, 1);  // 2e2d
  EXPECT_THROW(mt.pp_configure(5), Error);
  EXPECT_THROW(mt.pp_configure(0), Error);
  EXPECT_EQ(mt.pp_configure(4).stages, 4);

  models::Gpt2 gpt2(small_gpt2_config(), System::kLightSeq2, DType::kF32, 1);  // 4 blocks
  EXPECT_THROW(gpt2.pp_configure(5), Error);
  EXPECT_THROW(gpt2.pp_configure(0), Error);
  EXPECT_EQ(gpt2.pp_configure(4).stages, 4);

  models::BertConfig bcfg;
  bcfg.vocab = 64;
  bcfg.hidden = 32;
  bcfg.heads = 4;
  bcfg.ffn_dim = 64;
  bcfg.layers = 2;
  bcfg.max_len = 64;
  models::Bert bert(bcfg, System::kLightSeq2, DType::kF32, 1);
  EXPECT_THROW(bert.pp_configure(3), Error);
  EXPECT_THROW(bert.pp_configure(0), Error);
  EXPECT_EQ(bert.pp_configure(2).stages, 2);

  models::VitConfig vcfg;
  vcfg.image = 64;
  vcfg.patch = 16;
  vcfg.hidden = 32;
  vcfg.heads = 4;
  vcfg.ffn_dim = 64;
  vcfg.layers = 2;
  models::Vit vit(vcfg, System::kLightSeq2, DType::kF32, 1);
  EXPECT_THROW(vit.pp_configure(3), Error);
  EXPECT_THROW(vit.pp_configure(0), Error);
  EXPECT_EQ(vit.pp_configure(2).stages, 2);
}

// ---------------------------------------------------------------------------
// Hybrid composition: DP x PP, and the full DP x PP x TP cube
// ---------------------------------------------------------------------------

// This simulator models rank (0,0,0); DP only adds the per-stage bucket
// rings to the cost model, so DP2 x PP2 must produce bitwise the PP2
// losses while reporting real sync traffic.
TEST(HybridPpTest, Dp2xPp2MatchesPp2BitwiseAndReportsSync) {
  data::LmDataset ds(64, 4096, 47);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  auto run = [&](int dp) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.dtype = DType::kF32;
    sc.seed = 5;
    Session session(sc);
    models::Gpt2 model(small_gpt2_config(), System::kLightSeq2, DType::kF32, 23,
                       session.param_alloc());
    optim::OptimConfig ocfg;
    ocfg.lr = 0.01f;
    optim::LightSeq2Trainer trainer(model.params(), ocfg);
    std::vector<float> losses;
    core::StepTimes last;
    for (int i = 0; i < 3; ++i) {
      auto [times, res] =
          core::train_step(session, model, batch, trainer, pp_cluster(2, 4, dp));
      losses.push_back(res.loss_sum);
      last = times;
    }
    return std::make_pair(losses, last);
  };
  const auto [pp_losses, pp_times] = run(1);
  const auto [hy_losses, hy_times] = run(2);
  EXPECT_EQ(pp_losses, hy_losses);
  // dp=1 rings nothing; dp=2 moves every gradient byte and pays for it.
  EXPECT_EQ(pp_times.wire_bytes, 0);
  EXPECT_GT(hy_times.wire_bytes, 0);
  EXPECT_GT(hy_times.sync_us + hy_times.sync_overlapped_us, 0.0);
  EXPECT_GT(hy_times.sync_blocking_us, 0.0);
  EXPECT_GT(hy_times.update_us, 0.0);
}

// The full cube on 2 nodes x 4 GPUs: DP2 x PP2 x TP2. TP shards within a
// stage, PP splits stages, DP replicates — and rank (0,0,0)'s numerics are
// still bitwise the TP-only run's.
TEST(HybridPpTest, FullThreeAxisCompositionIsBitwise) {
  models::Gpt2Config cfg = small_gpt2_config();
  data::LmDataset ds(64, 4096, 53);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  optim::OptimConfig ocfg;
  ocfg.lr = 0.01f;

  auto tp_only = [&] {
    dist::ClusterConfig c;
    c.gpus_per_node = 2;
    c.nodes = 1;
    c.tensor_parallel = 2;
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.dtype = DType::kF32;
    sc.seed = 7;
    Session session(sc);
    dist::ProcessGroup pg(c);
    session.ctx().tp_group = &pg;
    models::Gpt2Config mc = cfg;
    mc.tp.size = 2;
    models::Gpt2 model(mc, System::kLightSeq2, DType::kF32, 23, session.param_alloc());
    optim::LightSeq2Trainer trainer(model.params(), ocfg);
    std::vector<float> losses;
    for (int i = 0; i < 3; ++i) {
      auto [times, res] = core::train_step(session, model, batch, trainer, c);
      losses.push_back(res.loss_sum);
    }
    return losses;
  }();

  dist::ClusterConfig cube;
  cube.gpus_per_node = 4;
  cube.nodes = 2;
  cube.tensor_parallel = 2;
  cube.pipeline_parallel = 2;
  cube.microbatches = 4;
  cube.validate();
  EXPECT_EQ(cube.dp_size(), 2);
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.seed = 7;
  Session session(sc);
  dist::ProcessGroup pg(cube);
  session.ctx().tp_group = &pg;
  models::Gpt2Config mc = cfg;
  mc.tp.size = 2;
  models::Gpt2 model(mc, System::kLightSeq2, DType::kF32, 23, session.param_alloc());
  optim::LightSeq2Trainer trainer(model.params(), ocfg);
  for (int i = 0; i < 3; ++i) {
    auto [times, res] = core::train_step(session, model, batch, trainer, cube);
    EXPECT_EQ(res.loss_sum, tp_only[static_cast<size_t>(i)]) << "step " << i;
    EXPECT_GT(times.tp_comm_us, 0.0);
    // TP waits land in the stage-0 chunks, which can make lane 0 the
    // bottleneck (zero bubble) — but the boundary sends are always there.
    EXPECT_GT(times.pp_comm_us, 0.0);
    EXPECT_GT(times.wire_bytes, 0);
  }
}

// ---------------------------------------------------------------------------
// Graph capture / replay under PP
// ---------------------------------------------------------------------------

TEST(PpGraphTest, CaptureReplayBitwiseUnderPp) {
  const models::Gpt2Config cfg = small_gpt2_config();
  data::LmDataset ds(64, 4096, 61);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  constexpr int kSteps = 6;

  // Arena from the capacity probe, with slack for the engine's 1F1B
  // residency reservation (stage 0 keeps min(pp, m) microbatch activation
  // sets live at its steady-state peak).
  core::CapacityScanOptions opt;
  opt.seed = 3;
  opt.headroom = 1.0;
  const size_t arena =
      2 * core::capacity_scan(
              [&](BufferAllocator* alloc) {
                return std::make_unique<models::Gpt2>(cfg, System::kLightSeq2,
                                                      DType::kF32, 67, alloc);
              },
              batch, opt) +
      (1u << 20);

  auto run = [&](bool graph) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.dtype = DType::kF32;
    sc.seed = 3;
    sc.graph_capture = graph;
    sc.arena_bytes = arena;
    Session session(sc);
    models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 67, session.param_alloc());
    optim::OptimConfig ocfg;
    ocfg.lr = 0.01f;
    optim::LightSeq2Trainer trainer(model.params(), ocfg);
    std::vector<float> losses;
    bool any_replayed = false;
    for (int i = 0; i < kSteps; ++i) {
      auto [times, res] =
          core::train_step(session, model, batch, trainer, pp_cluster(2, 4));
      losses.push_back(res.loss_sum);
      any_replayed = any_replayed || times.replayed;
    }
    EXPECT_FALSE(session.graph_poisoned()) << session.graph_poison_reason();
    EXPECT_EQ(any_replayed, graph);
    return losses;
  };

  const auto eager = run(false);
  const auto replay = run(true);
  EXPECT_EQ(eager, replay);
}

// ---------------------------------------------------------------------------
// Telemetry: a PP step feeds the same step span and train.* metrics as a
// pp = 1 step
// ---------------------------------------------------------------------------

TEST(PpTelemetryTest, PpStepEmitsStepSpanAndTrainMetrics) {
  data::LmDataset ds(64, 4096, 61);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  obs::MetricsRegistry reg;
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.seed = 3;
  sc.graph_capture = true;
  sc.arena_bytes = 32u << 20;  // ample for this model; the arena is capture-safe
  sc.record_timeline = true;
  sc.metrics = &reg;
  Session session(sc);
  models::Gpt2 model(small_gpt2_config(), System::kLightSeq2, DType::kF32, 67,
                     session.param_alloc());
  optim::LightSeq2Trainer trainer(model.params(), optim::OptimConfig{});
  constexpr int kSteps = 4;
  int64_t wire_bytes = 0, replayed = 0;
  for (int i = 0; i < kSteps; ++i) {
    auto [times, res] =
        core::train_step(session, model, batch, trainer, pp_cluster(2, 4, /*dp=*/2));
    wire_bytes += times.wire_bytes;
    replayed += times.replayed ? 1 : 0;
  }
  ASSERT_GT(wire_bytes, 0);
  ASSERT_GT(replayed, 0) << session.graph_poison_reason();

  EXPECT_EQ(reg.counter("train.steps"), kSteps);
  EXPECT_EQ(reg.counter("train.replayed_steps"), replayed);
  EXPECT_EQ(reg.counter("train.wire_bytes"), wire_bytes);
  EXPECT_TRUE(reg.has_histogram("train.step_us"));
  EXPECT_TRUE(reg.has_histogram("train.pp.bubble_us"));
  int step_spans = 0;
  for (const simgpu::NamedSpan& s : session.device().timeline().named_spans()) {
    step_spans += s.name == "step" ? 1 : 0;
  }
  EXPECT_EQ(step_spans, kSteps);
}

// ---------------------------------------------------------------------------
// Reported times: the live engine's bubble against the analytic bound
// ---------------------------------------------------------------------------

TEST(PpStepTimesTest, BubbleConsistentWithAnalyticBound) {
  data::LmDataset ds(64, 4096, 71);
  const models::LmBatch batch = ds.batch(0, 8, 12);
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.seed = 9;
  Session session(sc);
  models::Gpt2 model(small_gpt2_config(), System::kLightSeq2, DType::kF32, 23,
                     session.param_alloc());
  optim::OptimConfig ocfg;
  ocfg.lr = 0.01f;
  optim::LightSeq2Trainer trainer(model.params(), ocfg);
  const int pp = 2, m = 8;
  auto [times, res] = core::train_step(session, model, batch, trainer,
                                       pp_cluster(pp, m));
  // A real model's stages are not perfectly balanced, so the measured
  // lane-0 bubble fraction sits below the uniform-stage analytic value but
  // must stay positive and within a small factor of it.
  const double span = times.forward_us + times.backward_us + times.pp_bubble_us +
                      times.pp_exposed_us;
  const double frac = times.pp_bubble_us / span;
  const double analytic = dist::PipelineSchedule::analytic_bubble_fraction(pp, m);
  EXPECT_GT(times.pp_bubble_us, 0.0);
  EXPECT_LT(frac, 4.0 * analytic);
}

}  // namespace
}  // namespace ls2
