// Overlapped bucketed gradient synchronization: the two-stream device
// model, the bucket partition invariants, and the end-to-end claim that
// overlap hides most of the all-reduce behind backward (Fig. 22's
// mechanism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/lightseq2.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using core::StepTimes;
using layers::System;

TEST(CommStreamTest, OverlapsComputeAndExposesTail) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  dev.advance(10.0, /*busy=*/true, "forward");
  // Transfer enqueued at t=10 runs [10, 60) on the comm stream while the
  // compute stream keeps working.
  dev.enqueue_comm(50.0, "synchronize");
  EXPECT_NEAR(dev.comm_clock_us(), 60.0, 1e-9);
  EXPECT_NEAR(dev.clock_us(), 10.0, 1e-9);
  dev.advance(20.0, /*busy=*/true, "backward");
  // Compute reached t=30; draining the comm stream exposes the last 30us.
  const double exposed = dev.sync_comm("synchronize");
  EXPECT_NEAR(exposed, 30.0, 1e-9);
  EXPECT_NEAR(dev.clock_us(), 60.0, 1e-9);
  EXPECT_NEAR(dev.stats().comm_us, 50.0, 1e-9);
  EXPECT_NEAR(dev.stats().exposed_comm_us, 30.0, 1e-9);
  EXPECT_EQ(dev.stats().comm_transfers, 1);
  // Fully drained: a second sync waits for nothing.
  EXPECT_NEAR(dev.sync_comm("synchronize"), 0.0, 1e-9);
}

TEST(CommStreamTest, TransfersSerializeAmongThemselves) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  dev.enqueue_comm(40.0, "synchronize");  // [0, 40)
  dev.advance(10.0, true, "backward");
  dev.enqueue_comm(5.0, "synchronize");  // comm busy until 40 => [40, 45)
  EXPECT_NEAR(dev.comm_clock_us(), 45.0, 1e-9);
  EXPECT_NEAR(dev.sync_comm("synchronize"), 35.0, 1e-9);
}

TEST(CommStreamTest, ResetClearsCommClock) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  dev.enqueue_comm(50.0, "synchronize");
  dev.reset();
  EXPECT_NEAR(dev.comm_clock_us(), 0.0, 1e-9);
  EXPECT_NEAR(dev.sync_comm("synchronize"), 0.0, 1e-9);
}

TEST(BucketPlanTest, BucketsTileTheFlatGradientBufferExactly) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 16;
  models::Transformer model(cfg, System::kLightSeq2, DType::kF32, 1);
  const layers::ParamRegistry& params = model.params();

  // A small cap forces many buckets.
  const dist::BucketPlan plan(params, /*cap_bytes=*/4096);
  ASSERT_GT(plan.size(), 2);

  // Byte ranges: bucket 0 ends at the buffer's end (last declared params,
  // first ready); consecutive buckets abut with no gap or overlap; the last
  // bucket starts at byte 0.
  const auto& buckets = plan.buckets();
  EXPECT_EQ(buckets.front().byte_end, params.flat_grad_bytes());
  EXPECT_EQ(buckets.back().byte_begin, 0u);
  for (size_t i = 0; i + 1 < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].byte_begin, buckets[i + 1].byte_end) << "bucket " << i;
    EXPECT_GT(buckets[i].bytes(), 0);
  }
  int64_t bytes_sum = 0;
  for (const auto& b : buckets) bytes_sum += b.bytes();
  EXPECT_EQ(bytes_sum, static_cast<int64_t>(params.flat_grad_bytes()));

  // Param coverage: every param in exactly one bucket, in reverse order.
  std::vector<int> covered(static_cast<size_t>(params.size()), 0);
  for (const auto& b : buckets) {
    EXPECT_LT(b.param_begin, b.param_end);
    for (int p = b.param_begin; p < b.param_end; ++p) {
      covered[static_cast<size_t>(p)] += 1;
      EXPECT_EQ(plan.bucket_of(p), b.index);
    }
    // The bucket's byte range is exactly its params' spans.
    EXPECT_EQ(b.byte_begin, params.grad_byte_span(b.param_begin).first);
    EXPECT_EQ(b.byte_end, params.grad_byte_span(b.param_end - 1).second);
  }
  for (int p = 0; p < params.size(); ++p) {
    EXPECT_EQ(covered[static_cast<size_t>(p)], 1) << "param " << p;
  }

  // Each bucket's grad view addresses exactly its byte range.
  for (const auto& b : buckets) {
    const Tensor v = plan.grad_view(params, b);
    EXPECT_EQ(static_cast<int64_t>(v.bytes()), b.bytes());
  }
}

TEST(BucketPlanTest, PerTensorRegistrySpansTileConceptualBuffer) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 16;
  models::Transformer model(cfg, System::kFairseq, DType::kF32, 1);
  const dist::BucketPlan plan(model.params(), /*cap_bytes=*/4096);
  int64_t bytes_sum = 0;
  for (const auto& b : plan.buckets()) bytes_sum += b.bytes();
  EXPECT_EQ(bytes_sum, static_cast<int64_t>(model.params().flat_grad_bytes()));
}

// A plan over declaration ranges (one pipeline stage's params) tiles exactly
// those ranges; adjacent ranges coalesce into the whole-registry plan.
TEST(BucketPlanTest, RangedPlanTilesOnlyItsRanges) {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 16;
  models::Transformer model(cfg, System::kLightSeq2, DType::kF32, 1);
  const layers::ParamRegistry& params = model.params();
  const int n = params.size();
  auto bytes_of = [&](int lo, int hi) {
    return static_cast<int64_t>(params.grad_byte_span(hi - 1).second -
                                params.grad_byte_span(lo).first);
  };

  // Two ranges with a gap between them.
  const dist::BucketPlan plan(params, {{0, n / 4}, {n / 2, n}}, /*cap_bytes=*/4096);
  const int64_t want = bytes_of(0, n / 4) + bytes_of(n / 2, n);
  int64_t bytes_sum = 0;
  for (const auto& b : plan.buckets()) {
    bytes_sum += b.bytes();
    EXPECT_TRUE(b.param_end <= n / 4 || b.param_begin >= n / 2)
        << "bucket " << b.index << " spans the gap";
    EXPECT_EQ(b.byte_begin, params.grad_byte_span(b.param_begin).first);
    EXPECT_EQ(b.byte_end, params.grad_byte_span(b.param_end - 1).second);
  }
  EXPECT_EQ(bytes_sum, want);
  EXPECT_EQ(plan.total_bytes(), want);
  for (int p = n / 4; p < n / 2; ++p) EXPECT_EQ(plan.bucket_of(p), -1) << "param " << p;

  const dist::BucketPlan whole(params, /*cap_bytes=*/4096);
  const dist::BucketPlan split(params, {{0, n / 3}, {n / 3, n}}, /*cap_bytes=*/4096);
  ASSERT_EQ(split.size(), whole.size());
  for (int i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split.buckets()[static_cast<size_t>(i)].byte_begin,
              whole.buckets()[static_cast<size_t>(i)].byte_begin);
    EXPECT_EQ(split.buckets()[static_cast<size_t>(i)].byte_end,
              whole.buckets()[static_cast<size_t>(i)].byte_end);
  }

  EXPECT_THROW(dist::BucketPlan(params, {{0, n / 2}, {n / 4, n}}, 4096), Error);
  EXPECT_THROW(dist::BucketPlan(params, {{n / 2, n}, {0, n / 4}}, 4096), Error);
}

// The paper-scale overlap claim: with bucketed overlap the exposed sync time
// is strictly less than the blocking ring total, and the step gets faster by
// exactly the hidden amount.
TEST(OverlapTest, ExposedSyncBeatsBlockingAtPaperScale) {
  auto run = [&](bool overlap) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.dtype = DType::kF16;
    sc.record_timeline = true;
    Session s(sc);
    models::TransformerConfig cfg = models::TransformerConfig::base(6, 6);
    models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 1);
    optim::OptimConfig ocfg;
    optim::LightSeq2Trainer trainer(model.params(), ocfg);
    data::MtDataset ds(cfg.vocab, 64, 10, 40, 5);
    auto batches = data::make_mt_batches(ds, 4096, DType::kF16);
    dist::ClusterConfig cluster{8, 2};  // 16 GPUs, InfiniBand between nodes
    cluster.overlap = overlap;
    auto [times, res] = core::train_step(s, model, batches[0], trainer, cluster);
    return std::make_pair(times, s.device().timeline().comm_spans().size());
  };

  const auto [blocking, blocking_spans] = run(false);
  const auto [overlapped, overlapped_spans] = run(true);

  // Blocking: the whole ring is exposed, nothing runs on the comm stream.
  EXPECT_NEAR(blocking.sync_us, blocking.sync_blocking_us, 1e-6);
  EXPECT_EQ(blocking.sync_overlapped_us, 0.0);
  EXPECT_EQ(blocking_spans, 0u);

  // Overlap: most of the communication hides under backward; only the tail
  // (the embedding bucket, final at backward's end) stays exposed.
  EXPECT_GT(overlapped.sync_us, 0.0);
  EXPECT_LT(overlapped.sync_us, overlapped.sync_blocking_us);
  EXPECT_GT(overlapped.sync_overlapped_us, 0.0);
  EXPECT_GT(overlapped_spans, 0u);

  // Bucketing never reduces TOTAL comm work (it adds per-ring latency), it
  // only moves it off the critical path.
  EXPECT_GE(overlapped.sync_us + overlapped.sync_overlapped_us,
            overlapped.sync_blocking_us - 1e-6);

  // Stage identity holds in both modes and the overlapped step is faster.
  for (const StepTimes* t : {&blocking, &overlapped}) {
    EXPECT_NEAR(t->total_us(),
                t->forward_us + t->backward_us + t->sync_us + t->update_us, 1e-9);
  }
  EXPECT_LT(overlapped.total_us(), blocking.total_us());
  // Compute stages are unaffected by how sync is scheduled.
  EXPECT_NEAR(overlapped.forward_us, blocking.forward_us, 1e-6);
  EXPECT_NEAR(overlapped.backward_us, blocking.backward_us, 1e-6);
}

// Zero-grad has its own device range and is charged to the update stage, so
// forward no longer absorbs it (Fig. 3 attribution fix).
TEST(OverlapTest, ZeroGradAttributedToUpdateNotForward) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  Session s(sc);
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 16;
  models::Transformer model(cfg, System::kLightSeq2, DType::kF32, 1);
  optim::OptimConfig ocfg;
  optim::LightSeq2Trainer trainer(model.params(), ocfg);
  data::MtDataset ds(64, 8, 3, 8, 5);
  auto batches = data::make_mt_batches(ds, 64, DType::kF32);

  auto [times, res] = core::train_step(s, model, batches[0], trainer);
  EXPECT_GT(times.zero_grad_us, 0.0);
  EXPECT_LT(times.zero_grad_us, times.update_us);  // a component of update
  EXPECT_NEAR(s.device().range_time_us("zero_grad"), times.zero_grad_us, 1e-9);
  // The "forward" device range no longer contains the zeroing kernel.
  EXPECT_NEAR(s.device().range_time_us("forward") + times.zero_grad_us +
                  s.device().range_time_us("backward") +
                  s.device().range_time_us("update"),
              times.total_us(), 1e-6);
}

TEST(OverlapTest, GuardsRejectUnmaterializedRegistry) {
  layers::ParamRegistry reg;
  reg.declare("w", Shape{4, 4}, layers::Init::kXavier);
  EXPECT_THROW(reg.flat_grads(), Error);
  EXPECT_THROW(reg.zero_grads(), Error);
  EXPECT_THROW(reg.flat_grad_bytes(), Error);
  EXPECT_THROW((dist::BucketPlan(reg)), Error);

  // Per-tensor (non-contiguous) registries have no flat view either.
  layers::ParamRegistry per_tensor;
  per_tensor.declare("w", Shape{4, 4}, layers::Init::kXavier);
  per_tensor.materialize(DType::kF32, /*contiguous=*/false, Rng(1));
  EXPECT_THROW(per_tensor.flat_grads(), Error);
  EXPECT_THROW(per_tensor.grad_byte_view(0, 16), Error);
}

TEST(OverlapTest, BucketedSyncMatchesPerParamSync) {
  models::TransformerConfig cfg;
  cfg.vocab = 32;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 16;
  // Both pairs run through one session whose dropout RNG advances per
  // kernel, so determinism across pairs requires dropout off.
  cfg.dropout = cfg.attn_dropout = cfg.act_dropout = 0.0f;

  data::MtDataset ds(32, 32, 3, 7, 5);
  auto batches = data::make_mt_batches(ds, 48, DType::kF32);
  ASSERT_GE(batches.size(), 2u);

  // Two pairs of replicas fed the same data, one synced per-param and one
  // per-bucket: gradients must match bitwise afterwards.
  auto make = [&](int seed) {
    return std::make_unique<models::Transformer>(cfg, System::kLightSeq2, DType::kF32,
                                                 static_cast<uint64_t>(seed));
  };
  auto a0 = make(3), a1 = make(3), b0 = make(3), b1 = make(3);
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  for (int r = 0; r < 2; ++r) {
    Session s(sc);
    models::Transformer& pa = r == 0 ? *a0 : *a1;
    models::Transformer& pb = r == 0 ? *b0 : *b1;
    for (models::Transformer* m : {&pa, &pb}) {
      m->params().zero_grads();
      m->forward(s.ctx(), batches[static_cast<size_t>(r)]);
      m->backward(s.ctx());
    }
  }
  dist::sync_gradients({&a0->params(), &a1->params()});
  const dist::BucketPlan plan(b0->params(), /*cap_bytes=*/4096);
  dist::sync_gradients_bucketed({&b0->params(), &b1->params()}, plan);

  const auto ga = a0->params().flat_grads().to_vector();
  const auto gb = b0->params().flat_grads().to_vector();
  ASSERT_EQ(ga.size(), gb.size());
  for (size_t i = 0; i < ga.size(); ++i) {
    ASSERT_EQ(ga[i], gb[i]) << "element " << i;
  }
}


// --- the bucket planner (dist::plan_buckets) ------------------------------

/// A synthetic lane: units of 1-4 params each, in ranges with gaps between
/// some of them, ready from the last declared down (the order backward
/// reports them; the last few only as backward ends), and no other comm
/// traffic.
struct SyntheticLane {
  layers::ParamRegistry params;
  std::vector<layers::ParamRange> ranges;
  dist::LaneTrace trace;
  double comm_busy_us = 0;
};

std::unique_ptr<SyntheticLane> synthetic_lane(uint64_t seed) {
  const Rng rng(seed);
  uint64_t draw = 0;
  auto pick = [&](uint64_t n) { return static_cast<int>(rng.randint(3, draw++, n)); };
  auto lane = std::make_unique<SyntheticLane>();
  const int units = 1 + pick(10);
  std::vector<layers::ParamRange> decl;  // units in declaration order
  for (int u = 0; u < units; ++u) {
    if (u > 0 && pick(4) == 0) {  // a param outside the lane: a gap
      lane->params.declare("gap" + std::to_string(u), Shape{64}, layers::Init::kZero);
    }
    const int begin = lane->params.size();
    for (int k = pick(3); k >= 0; --k) {
      lane->params.declare("u" + std::to_string(u) + "." + std::to_string(k),
                           Shape{int64_t{1024} << pick(7)}, layers::Init::kZero);
    }
    decl.push_back({begin, lane->params.size()});
  }
  lane->params.materialize(DType::kF32, /*contiguous=*/true, Rng(1));
  lane->ranges = dist::coalesce_ranges(decl, lane->params.size());

  dist::LaneTrace& t = lane->trace;
  t.params = lane->params.size();
  t.ranges = lane->ranges;
  t.start_us = -5000;
  t.pipelined = pick(2) == 0;
  t.update = {static_cast<double>(pick(20)), 1e-4 * pick(10)};
  t.update_us = pick(500);
  const int at_end = pick(3);  // units ready only when backward returns
  double at = -static_cast<double>(pick(2000));
  for (int u = units - 1; u >= 0; --u) {
    const bool end = u < at_end;
    t.events.push_back({dist::LaneTrace::Event::Kind::kUnit, end ? 0.0 : at, 0,
                        static_cast<int>(t.units.size())});
    t.units.push_back(decl[static_cast<size_t>(u)]);
    at = std::min(0.0, at + pick(400));
  }
  lane->comm_busy_us = pick(2) == 0 ? 0.0 : pick(6000);
  return lane;
}

/// Cheap latency, slow links: splitting pays, and the cold-start cap
/// (>= 25 MB) covers every synthetic lane in one bucket per run.
dist::RingModel synthetic_ring() {
  simgpu::DeviceProfile profile = simgpu::a100();
  profile.allreduce_latency_us = 2.0;
  profile.nvlink_bus_gb_s = 1.0;
  return {dist::ClusterConfig{8, 1}, profile, DType::kF32, 1.0};
}

/// Buckets tile the lane's ranges, never straddle a gap and never split a
/// unit.
void expect_tiles(const SyntheticLane& lane, const dist::BucketPlan& plan) {
  int64_t want = 0;
  for (const layers::ParamRange& r : lane.ranges) {
    want += static_cast<int64_t>(lane.params.grad_byte_span(r.end - 1).second -
                                 lane.params.grad_byte_span(r.begin).first);
  }
  EXPECT_EQ(plan.total_bytes(), want);
  for (const dist::GradBucket& b : plan.buckets()) {
    EXPECT_TRUE(std::any_of(lane.ranges.begin(), lane.ranges.end(),
                            [&](const layers::ParamRange& r) {
                              return r.begin <= b.param_begin && b.param_end <= r.end;
                            }))
        << "bucket " << b.index << " straddles a gap";
  }
  for (const layers::ParamRange& u : lane.trace.units) {
    for (int p = u.begin; p < u.end; ++p) {
      EXPECT_EQ(plan.bucket_of(p), plan.bucket_of(u.begin)) << "unit split at param " << p;
    }
  }
}

/// Every contiguous partition of the lane's units, by brute force.
std::vector<dist::BucketPlan> all_partitions(const SyntheticLane& lane) {
  std::vector<layers::ParamRange> decl = lane.trace.units;
  std::sort(decl.begin(), decl.end(),
            [](const layers::ParamRange& a, const layers::ParamRange& b) {
              return a.begin < b.begin;
            });
  const size_t cuts = decl.size() - 1;
  std::vector<dist::BucketPlan> plans;
  for (uint32_t mask = 0; mask < (1u << cuts); ++mask) {
    bool ok = true;
    std::vector<layers::ParamRange> buckets{decl[0]};
    for (size_t i = 1; i < decl.size(); ++i) {
      const bool adjacent = decl[i].begin == buckets.back().end;
      const bool cut = (mask >> (i - 1)) & 1u;
      if (!adjacent && !cut) ok = false;  // a bucket cannot span a gap
      if (cut) {
        buckets.push_back(decl[i]);
      } else {
        buckets.back().end = decl[i].end;
      }
    }
    if (!ok) continue;
    std::reverse(buckets.begin(), buckets.end());
    plans.push_back(dist::BucketPlan::from_buckets(lane.params, buckets));
  }
  return plans;
}

TEST(BucketPlannerTest, PlansTileRangesAndMatchBruteForceOptimum) {
  const dist::RingModel ring = synthetic_ring();
  int split = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto lane = synthetic_lane(seed);
    const dist::BucketPlan plan = dist::plan_buckets(lane->params, lane->ranges, &lane->trace,
                                                     ring, lane->comm_busy_us);
    expect_tiles(*lane, plan);
    const double planned = dist::model_lane(lane->trace, plan, ring, lane->comm_busy_us).end_us;
    double best = std::numeric_limits<double>::infinity();
    for (const dist::BucketPlan& p : all_partitions(*lane)) {
      best = std::min(best, dist::model_lane(lane->trace, p, ring, lane->comm_busy_us).end_us);
    }
    EXPECT_NEAR(planned, best, 1e-9 * std::abs(best));
    split += plan.size() > static_cast<int>(lane->ranges.size()) ? 1 : 0;

    // The same inputs always give the same plan.
    const dist::BucketPlan again = dist::plan_buckets(lane->params, lane->ranges, &lane->trace,
                                                      ring, lane->comm_busy_us);
    ASSERT_EQ(again.size(), plan.size());
    for (int b = 0; b < plan.size(); ++b) {
      EXPECT_EQ(again.buckets()[static_cast<size_t>(b)].param_begin,
                plan.buckets()[static_cast<size_t>(b)].param_begin);
      EXPECT_EQ(again.buckets()[static_cast<size_t>(b)].param_end,
                plan.buckets()[static_cast<size_t>(b)].param_end);
    }
  }
  EXPECT_GT(split, 20) << "the synthetic lanes should often pay to split";
}

TEST(BucketPlannerTest, SimultaneousOrLateRingsGetOneBucketPerRun) {
  const dist::RingModel ring = synthetic_ring();
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto lane = synthetic_lane(seed);
    // Each extra bucket costs one more ring latency and update launch, and
    // nothing can overlap: every unit is ready at the end of backward ...
    lane->trace.update = {5.0, 0.0};
    for (dist::LaneTrace::Event& e : lane->trace.events) e.at_us = 0;
    std::sort(lane->trace.units.begin(), lane->trace.units.end(),
              [](const layers::ParamRange& a, const layers::ParamRange& b) {
                return a.begin < b.begin;
              });
    EXPECT_EQ(dist::plan_buckets(lane->params, lane->ranges, &lane->trace, ring, 0).size(),
              static_cast<int>(lane->ranges.size()));
    // ... or the comm stream stays busy past it.
    auto busy = synthetic_lane(seed);
    busy->trace.update = {5.0, 0.0};
    EXPECT_EQ(dist::plan_buckets(busy->params, busy->ranges, &busy->trace, ring,
                                 -busy->trace.start_us + 1000)
                  .size(),
              static_cast<int>(busy->ranges.size()));
  }
}

TEST(BucketPlannerTest, ColdStartKeepsTheCapPartition) {
  models::TransformerConfig cfg = models::TransformerConfig::base(2, 2);
  models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 1);
  const layers::ParamRegistry& params = model.params();
  const dist::RingModel ring{dist::ClusterConfig{8, 1}, simgpu::a100(), DType::kF16, 1.0};
  // 4 x 30 us x 8 x 300 GB/s = 288 MB: one bucket for this model.
  const dist::BucketPlan cold = dist::plan_buckets(params, {{0, params.size()}}, nullptr, ring);
  EXPECT_EQ(cold.size(), 1);
  // A trace taken on other ranges does not plan these.
  dist::LaneTrace other;
  other.params = params.size();
  other.ranges = {{0, params.size() / 2}};
  EXPECT_EQ(dist::plan_buckets(params, {{0, params.size()}}, &other, ring).size(), 1);
  // With one replica the plan only sets optimizer ranges: one per run.
  const dist::RingModel solo{dist::ClusterConfig{1, 1}, simgpu::a100(), DType::kF16, 1.0};
  EXPECT_EQ(dist::plan_buckets(params, {{0, 3}, {5, params.size()}}, nullptr, solo).size(), 2);
}

/// Train three steps on one batch and check step 3 against the model
/// planned from step 2's measurement: each ring ends when the model says,
/// and the step ends within 1% of where the model does.
template <typename MakeModel, typename Batch>
void expect_planned_step_matches_model(MakeModel make_model, const Batch& batch,
                                       const dist::ClusterConfig& cluster,
                                       bool exact_rings) {
  dist::ProcessGroup pg(cluster);
  dist::ProcessGroup* tp_group = cluster.tensor_parallel > 1 ? &pg : nullptr;
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.profile = simgpu::a100();
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.record_timeline = true;
  // The arena makes steps 2 and 3 identical: no allocator warm-up left.
  core::CapacityScanOptions opt;
  opt.profile = sc.profile;
  opt.tp_group = tp_group;
  sc.arena_bytes = core::capacity_scan(make_model, batch, opt);
  Session s(sc);
  s.ctx().tp_group = tp_group;
  auto model = make_model(s.param_alloc());
  optim::OptimConfig ocfg;
  optim::LightSeq2Trainer trainer(model->params(), ocfg);
  for (int i = 0; i < 2; ++i) (void)core::train_step(s, *model, batch, trainer, cluster);

  simgpu::Device& dev = s.device();
  ASSERT_EQ(s.bucket_memo.lanes.size(), 1u);
  const dist::LaneTrace trace = s.bucket_memo.lanes[0];
  const layers::ParamRegistry& params = model->params();
  const dist::RingModel ring{cluster, dev.profile(), params.dtype(), 1.0};
  const double t0 = dev.clock_us();
  const double busy = dev.comm_clock_us() - t0;
  const dist::BucketPlan plan =
      dist::plan_buckets(params, {{0, params.size()}}, &trace, ring, busy);
  const dist::LaneResult modeled = dist::model_lane(trace, plan, ring, busy);
  if (exact_rings) EXPECT_GT(plan.size(), 1) << "one ring leaves nothing to overlap";

  const size_t spans0 = dev.timeline().named_spans().size();
  auto [times, res] = core::train_step(s, *model, batch, trainer, cluster);
  const double total = times.total_us();
  EXPECT_NEAR(modeled.end_us - trace.start_us, total, 0.01 * total);

  // The comm-lane span of each ring ends at its bucket's landing: the
  // modeled comm-stream time its replica-averaged gradients are final.
  int rings = 0;
  const auto& spans = dev.timeline().named_spans();
  for (size_t i = spans0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (name.rfind("allreduce.b", 0) != 0) continue;
    const int b = std::stoi(name.substr(11));
    ASSERT_LT(b, plan.size());
    ++rings;
    if (!exact_rings) continue;
    const double want = t0 + (modeled.done_us[static_cast<size_t>(b)] - trace.start_us);
    EXPECT_NEAR(spans[i].end_us, want, 1e-9 * want) << name;
  }
  EXPECT_EQ(rings, plan.size());
}

TEST(BucketPlannerTest, PlannedStepMatchesModel) {
  models::TransformerConfig cfg = models::TransformerConfig::base(6, 6);
  data::MtDataset ds(cfg.vocab, 64, 10, 40, 5);
  const auto batches = data::make_mt_batches(ds, 4096, DType::kF16);
  expect_planned_step_matches_model(
      [&](BufferAllocator* alloc) {
        return std::make_unique<models::Transformer>(cfg, System::kLightSeq2, DType::kF16, 1,
                                                     alloc);
      },
      batches[0], dist::ClusterConfig{8, 1}, /*exact_rings=*/true);

  // TP collectives share the comm stream on a 4-GPU node at tp = dp = 2.
  dist::ClusterConfig hybrid{4, 1};
  hybrid.tensor_parallel = 2;
  expect_planned_step_matches_model(
      [&](BufferAllocator* alloc) {
        models::TransformerConfig c = cfg;
        c.tp.size = 2;
        c.tp.simulate_peers = false;
        return std::make_unique<models::Transformer>(c, System::kLightSeq2, DType::kF16, 1,
                                                     alloc);
      },
      batches[0], hybrid, /*exact_rings=*/false);
}

}  // namespace
}  // namespace ls2
