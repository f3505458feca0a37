// Overlapped bucketed gradient synchronization: the two-stream device
// model, the bucket partition invariants, and the end-to-end claim that
// overlap hides most of the all-reduce behind backward (Fig. 22's
// mechanism).
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ls2
