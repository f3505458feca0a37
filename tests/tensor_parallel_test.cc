// Tensor parallelism (DESIGN.md §7).
//
// The contract, in order of importance:
//  1. PARITY — an FP32 TP=k run produces bitwise the losses of the
//     unsharded model seeded identically, and its shards gather back into
//     bitwise the unsharded parameters, for all four models, multi-step,
//     WITH dropout on. The foundation is proven directly on the GEMM:
//     column/row-parallel sharding with an in-rank-order reduction is
//     bitwise the full ascending-k accumulation.
//  2. HYBRID — TP composes with data parallelism: DP=2 x TP=2 gradients
//     match DP=2 unsharded bitwise and DP=4 up to reduction association.
//  3. COST — TP collectives charge the comm stream by the NVLink ring
//     model; shard activations reserve 1/k of the device allocator; the
//     Transformer fits at TP=4 in an arena TP=1 overflows.
//  4. GRAPHS — capture/replay still holds bitwise under TP (collectives
//     are comm-enqueue/stream-wait nodes, recomputed each replay).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/lightseq2.h"
#include "gemm/gemm.h"
#include "layers/tp.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;

dist::ClusterConfig tp_cluster(int tp) {
  dist::ClusterConfig c;
  c.gpus_per_node = tp;
  c.nodes = 1;
  c.tensor_parallel = tp;
  return c;
}

// ---------------------------------------------------------------------------
// Process-group rank math and collective cost accounting
// ---------------------------------------------------------------------------

TEST(ProcessGroupTest, RankMathSplitsTpAndDpOrthogonally) {
  dist::ClusterConfig c;
  c.gpus_per_node = 4;
  c.nodes = 2;
  c.tensor_parallel = 2;
  dist::ProcessGroup pg(c);
  EXPECT_EQ(pg.tp_size(), 2);
  EXPECT_EQ(pg.dp_size(), 4);
  EXPECT_EQ(pg.world_size(), 8);

  // rank 5 = node 1, local 1 -> tp_rank 1, dp_rank 2.
  EXPECT_EQ(pg.tp_rank(5), 1);
  EXPECT_EQ(pg.dp_rank(5), 2);
  EXPECT_EQ(pg.tp_group_ranks(5), (std::vector<int>{4, 5}));
  EXPECT_EQ(pg.dp_group_ranks(5), (std::vector<int>{1, 3, 5, 7}));
  // TP groups never cross the node boundary (ranks 4,5 both on node 1).
  for (int r = 0; r < pg.world_size(); ++r) {
    const auto grp = pg.tp_group_ranks(r);
    EXPECT_EQ(grp.front() / c.gpus_per_node, grp.back() / c.gpus_per_node);
  }
  // Indivisible TP degree is rejected.
  dist::ClusterConfig bad = c;
  bad.tensor_parallel = 3;
  EXPECT_THROW(dist::ProcessGroup{bad}, Error);
}

TEST(ProcessGroupTest, CollectiveChargesMatchTheNvlinkRingModel) {
  const simgpu::DeviceProfile prof = simgpu::v100();
  simgpu::Device dev(prof, simgpu::ExecMode::kModelOnly);
  dist::ProcessGroup pg(tp_cluster(4));
  const int64_t bytes = 64 * 1024 * 1024;

  // Analytic forms: ring all-reduce 2(k-1)/k, gather/scatter (k-1)/k.
  const double ar = pg.all_reduce_us(bytes, prof);
  const double ag = pg.all_gather_us(bytes, prof);
  EXPECT_DOUBLE_EQ(ar, 2.0 * 3.0 * (bytes / 4.0) / (prof.nvlink_bus_gb_s * 1e3) +
                           6.0 * prof.allreduce_latency_us);
  EXPECT_DOUBLE_EQ(ag, 3.0 * (bytes / 4.0) / (prof.nvlink_bus_gb_s * 1e3) +
                           3.0 * prof.allreduce_latency_us);

  // Charging: the transfer lands on the comm stream; the immediate wait
  // exposes all of it (nothing overlaps here) and the stats account it.
  const double exposed = pg.all_reduce(dev, bytes, "t");
  EXPECT_DOUBLE_EQ(exposed, ar);
  EXPECT_DOUBLE_EQ(dev.stats().comm_us, ar);
  EXPECT_DOUBLE_EQ(dev.stats().exposed_comm_us, ar);
  EXPECT_EQ(pg.stats().collectives, 1);
  EXPECT_EQ(pg.stats().bytes, bytes);
  EXPECT_DOUBLE_EQ(pg.stats().comm_us, ar);
  EXPECT_DOUBLE_EQ(pg.stats().exposed_us, ar);

  // Enqueue-compute-wait hides the transfer behind independent compute.
  pg.reset_stats();
  const double done = pg.all_reduce_begin(dev, bytes, "t");
  dev.advance(ar * 2, /*busy=*/true, "compute");
  const double exposed2 = pg.wait(dev, done, "t");
  EXPECT_DOUBLE_EQ(exposed2, 0.0);
  EXPECT_DOUBLE_EQ(pg.stats().exposed_us, 0.0);
  EXPECT_DOUBLE_EQ(pg.stats().comm_us, ar);

  // TP=1 charges nothing.
  dist::ProcessGroup solo(tp_cluster(1));
  EXPECT_DOUBLE_EQ(solo.all_reduce_us(bytes, prof), 0.0);
}

// ---------------------------------------------------------------------------
// The bitwise foundation: sharded GEMM arithmetic
// ---------------------------------------------------------------------------

// Column/row-parallel GEMMs with an IN-RANK-ORDER reduction are bitwise the
// unsharded GEMM — real sharded arithmetic here, not the emulation. This is
// the theorem that lets layers compute full tensors as the stand-in for
// their shards (layers/tp.h).
TEST(ShardedGemmTest, ColumnAndRowShardingMatchFullBitwise) {
  const int64_t M = 13, N = 24, K = 36, k = 4;
  Rng rng(7);
  Tensor x = Tensor::empty({M, K}, DType::kF32);
  Tensor w = Tensor::empty({N, K}, DType::kF32);
  rng.fill_uniform(x, 1, -1.0f, 1.0f);
  rng.fill_uniform(w, 2, -1.0f, 1.0f);

  Tensor y_full = Tensor::zeros({M, N}, DType::kF32);
  gemm::sgemm(false, true, M, N, K, 1.0f, x.data<float>(), w.data<float>(), 0.0f,
              y_full.data<float>());

  // Column-parallel: rank r owns rows [r*N/k, ...) of W and computes its
  // own output columns — plain slices, bitwise by construction.
  {
    Tensor y = Tensor::zeros({M, N}, DType::kF32);
    for (int64_t r = 0; r < k; ++r) {
      const int64_t nr = N / k;
      Tensor w_shard = w.slice(r * nr, (r + 1) * nr);
      std::vector<float> part(static_cast<size_t>(M * nr));
      gemm::sgemm(false, true, M, nr, K, 1.0f, x.data<float>(), w_shard.data<float>(),
                  0.0f, part.data());
      float* yp = y.data<float>();
      for (int64_t i = 0; i < M; ++i)
        for (int64_t j = 0; j < nr; ++j) yp[i * N + r * nr + j] = part[i * nr + j];
    }
    EXPECT_EQ(std::memcmp(y.raw(), y_full.raw(), y_full.bytes()), 0);
  }

  // Row-parallel: rank r owns K/k input features; partials are summed in
  // ascending rank order (the in-order ring), which is EXACTLY the full
  // GEMM's ascending-k accumulation — bitwise, not approximately.
  {
    Tensor y = Tensor::zeros({M, N}, DType::kF32);
    const int64_t kr = K / k;
    for (int64_t r = 0; r < k; ++r) {
      std::vector<float> x_shard(static_cast<size_t>(M * kr));
      std::vector<float> w_shard(static_cast<size_t>(N * kr));
      const float* xp = x.data<float>();
      const float* wp = w.data<float>();
      for (int64_t i = 0; i < M; ++i)
        for (int64_t j = 0; j < kr; ++j) x_shard[i * kr + j] = xp[i * K + r * kr + j];
      for (int64_t i = 0; i < N; ++i)
        for (int64_t j = 0; j < kr; ++j) w_shard[i * kr + j] = wp[i * K + r * kr + j];
      gemm::sgemm(false, true, M, N, kr, 1.0f, x_shard.data(), w_shard.data(),
                  r == 0 ? 0.0f : 1.0f, y.data<float>());
    }
    EXPECT_EQ(std::memcmp(y.raw(), y_full.raw(), y_full.bytes()), 0);
  }
}

// Sharded declarations initialise as SLICES of the full tensor: same RNG
// stream, full-shape Xavier fans, groups-aware row slicing.
TEST(ShardedParamTest, ShardedInitMatchesUnshardedSlices) {
  const int64_t R = 12, C = 6, k = 2;
  layers::ParamRegistry ref;
  layers::ParamRef full_w = ref.declare("w", Shape{R, C}, layers::Init::kXavier);
  layers::ParamRef full_t = ref.declare("t", Shape{R, C}, layers::Init::kNormal);
  ref.materialize(DType::kF32, false, Rng(5));

  layers::ParamRegistry sh;
  layers::ShardSpec s0{/*dim=*/0, /*groups=*/3, /*index=*/0, /*count=*/k};
  layers::ShardSpec s1 = s0;
  s1.index = 1;
  layers::ParamRef w0 = sh.declare_sharded("w", Shape{R, C}, layers::Init::kXavier, s0);
  layers::ParamRef w1 =
      sh.declare_sharded("w.tp1", Shape{R, C}, layers::Init::kXavier, s1, 9000 + 0);
  layers::ShardSpec c0{/*dim=*/1, /*groups=*/1, 0, k};
  layers::ShardSpec c1 = c0;
  c1.index = 1;
  // "t" is declaration #2 here but #1 in the reference (this test registry
  // holds the peer shard inline; the real flow keeps peers in their own
  // registry, where indices align) — so pin its stream explicitly.
  layers::ParamRef t0 =
      sh.declare_sharded("t", Shape{R, C}, layers::Init::kNormal, c0, 9000 + 1);
  layers::ParamRef t1 =
      sh.declare_sharded("t.tp1", Shape{R, C}, layers::Init::kNormal, c1, 9000 + 1);
  sh.materialize(DType::kF32, false, Rng(5));

  EXPECT_EQ(sh.shape(w0), (Shape{R / k, C}));
  EXPECT_EQ(sh.full_shape(w0), (Shape{R, C}));

  // Reassemble and compare bitwise against the unsharded init.
  Tensor w_gathered = Tensor::zeros({R, C}, DType::kF32);
  layers::copy_full_from_shard(sh.value(w0), w_gathered, s0);
  layers::copy_full_from_shard(sh.value(w1), w_gathered, s1);
  EXPECT_EQ(std::memcmp(w_gathered.raw(), ref.value(full_w).raw(), w_gathered.bytes()), 0);

  Tensor t_gathered = Tensor::zeros({R, C}, DType::kF32);
  layers::copy_full_from_shard(sh.value(t0), t_gathered, c0);
  layers::copy_full_from_shard(sh.value(t1), t_gathered, c1);
  EXPECT_EQ(std::memcmp(t_gathered.raw(), ref.value(full_t).raw(), t_gathered.bytes()), 0);
}

// ---------------------------------------------------------------------------
// End-to-end model parity: TP=k bitwise equals the unsharded run
// ---------------------------------------------------------------------------

struct TpTrace {
  std::vector<float> losses;
  std::vector<bool> replayed;
};

/// The full parity property for one model family: TP in {2, 4} training is
/// bitwise the unsharded run — losses per step AND gathered parameters —
/// with dropout ON.
template <typename MakeModel, typename Batch>
void expect_tp_parity(const char* family, MakeModel make_model, const Batch& batch) {
  constexpr int kSteps = 4;

  // Unsharded reference.
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.seed = 3;
  Session ref_session(sc);
  auto ref_model = make_model(dist::TpConfig{}, ref_session.param_alloc());
  optim::OptimConfig ocfg;
  ocfg.lr = 0.01f;
  optim::LightSeq2Trainer ref_trainer(ref_model->params(), ocfg);
  std::vector<float> ref_losses;
  for (int i = 0; i < kSteps; ++i) {
    auto [times, res] = core::train_step(ref_session, *ref_model, batch, ref_trainer);
    if constexpr (requires { res.loss_sum; }) {
      ref_losses.push_back(res.loss_sum);
    } else {
      ref_losses.push_back(res.loss);
    }
  }

  for (int tp : {2, 4}) {
    SessionConfig tsc = sc;
    Session session(tsc);
    dist::ProcessGroup pg(tp_cluster(tp));
    session.ctx().tp_group = &pg;
    dist::TpConfig tp_cfg;
    tp_cfg.size = tp;
    auto model = make_model(tp_cfg, session.param_alloc());
    optim::LightSeq2Trainer trainer(model->params(), ocfg);
    for (int i = 0; i < kSteps; ++i) {
      auto [times, res] = core::train_step(session, *model, batch, trainer,
                                           tp_cluster(tp));
      const float loss = [&] {
        if constexpr (requires { res.loss_sum; }) {
          return res.loss_sum;
        } else {
          return res.loss;
        }
      }();
      EXPECT_EQ(loss, ref_losses[static_cast<size_t>(i)])
          << family << " tp=" << tp << " step " << i << " loss diverged";
      EXPECT_GT(times.tp_comm_us, 0.0);
      EXPECT_GT(times.tp_exposed_us, 0.0);
    }
    EXPECT_EQ(dist::compare_gathered_params(model->params(), model->tp_peers(),
                                            ref_model->params()),
              "")
        << family << " tp=" << tp;
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

models::MtBatch small_mt_batch() {
  data::MtDataset ds(small_mt_config().vocab, 24, 4, 10, 13);
  auto batches = data::make_mt_batches(ds, 48, DType::kF32);
  return data::largest_batch(batches);
}

TEST(TpParityTest, TransformerBitwiseAcrossTpDegrees) {
  const models::MtBatch batch = small_mt_batch();
  expect_tp_parity("transformer",
                   [&](dist::TpConfig tp, BufferAllocator* alloc) {
                     models::TransformerConfig cfg = small_mt_config();
                     cfg.tp = tp;
                     return std::make_unique<models::Transformer>(
                         cfg, System::kLightSeq2, DType::kF32, 21, alloc);
                   },
                   batch);
}

TEST(TpParityTest, Gpt2BitwiseAcrossTpDegrees) {
  data::LmDataset ds(64, 4096, 19);
  const models::LmBatch batch = ds.batch(0, 2, 12);
  expect_tp_parity("gpt2",
                   [&](dist::TpConfig tp, BufferAllocator* alloc) {
                     models::Gpt2Config cfg;
                     cfg.vocab = 64;
                     cfg.hidden = 32;
                     cfg.heads = 4;
                     cfg.ffn_dim = 64;
                     cfg.layers = 2;
                     cfg.max_len = 64;
                     cfg.tp = tp;
                     return std::make_unique<models::Gpt2>(cfg, System::kLightSeq2,
                                                           DType::kF32, 23, alloc);
                   },
                   batch);
}

TEST(TpParityTest, BertBitwiseAcrossTpDegrees) {
  data::ClsDataset ds(64, 64, 32, 29);
  const models::ClsBatch batch = ds.batch(0, 4, 12);
  expect_tp_parity("bert",
                   [&](dist::TpConfig tp, BufferAllocator* alloc) {
                     models::BertConfig cfg;
                     cfg.vocab = 64;
                     cfg.hidden = 32;
                     cfg.heads = 4;
                     cfg.ffn_dim = 64;
                     cfg.layers = 2;
                     cfg.max_len = 64;
                     cfg.tp = tp;
                     return std::make_unique<models::Bert>(cfg, System::kLightSeq2,
                                                           DType::kF32, 31, alloc);
                   },
                   batch);
}

TEST(TpParityTest, VitBitwiseAcrossTpDegrees) {
  models::VitConfig vcfg;
  vcfg.image = 64;
  vcfg.patch = 16;
  vcfg.hidden = 32;
  vcfg.heads = 4;
  vcfg.ffn_dim = 64;
  vcfg.layers = 2;
  data::ImageDataset ds(10, 64, 37);
  const models::ImageBatch batch = ds.batch(0, 3, vcfg, DType::kF32);
  expect_tp_parity("vit",
                   [&](dist::TpConfig tp, BufferAllocator* alloc) {
                     models::VitConfig cfg = vcfg;
                     cfg.tp = tp;
                     return std::make_unique<models::Vit>(cfg, System::kLightSeq2,
                                                          DType::kF32, 41, alloc);
                   },
                   batch);
}

// ---------------------------------------------------------------------------
// Hybrid data x model parallelism
// ---------------------------------------------------------------------------

// DP=2 x TP=2 gradients, synced across the two hybrid replicas and
// gathered, are BITWISE the DP=2 unsharded gradients — and match DP=4 (the
// same global batch split 4 ways) up to reduction association.
TEST(HybridParallelTest, Dp2xTp2MatchesDp4Gradients) {
  models::Gpt2Config cfg;
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.layers = 2;
  cfg.max_len = 64;
  cfg.dropout = 0.0f;  // replicas draw independent masks; disable for equivalence
  const int64_t B = 8, L = 12;
  data::LmDataset ds(cfg.vocab, 4096, 47);
  const models::LmBatch full = ds.batch(0, B, L);

  auto quarter = [&](int64_t i) {
    return models::LmBatch{full.ids.slice(i * 2, (i + 1) * 2),
                           full.targets.slice(i * 2, (i + 1) * 2)};
  };
  auto half = [&](int64_t i) {
    return models::LmBatch{full.ids.slice(i * 4, (i + 1) * 4),
                           full.targets.slice(i * 4, (i + 1) * 4)};
  };

  auto make_model = [&](dist::TpConfig tp) {
    models::Gpt2Config c = cfg;
    c.tp = tp;
    return std::make_unique<models::Gpt2>(c, System::kLightSeq2, DType::kF32, 51,
                                          nullptr);
  };
  auto run_fwd_bwd = [&](models::Gpt2& m, Session& s, const models::LmBatch& b) {
    m.params().zero_grads();
    s.ctx().loss_scale = 1.0f;
    (void)m.forward(s.ctx(), b);
    m.backward(s.ctx());
  };

  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;

  // DP=4 unsharded replicas on quarter batches.
  std::vector<std::unique_ptr<Session>> s4;
  std::vector<std::unique_ptr<models::Gpt2>> m4;
  std::vector<layers::ParamRegistry*> r4;
  for (int64_t i = 0; i < 4; ++i) {
    s4.push_back(std::make_unique<Session>(sc));
    m4.push_back(make_model({}));
    run_fwd_bwd(*m4.back(), *s4.back(), quarter(i));
    r4.push_back(&m4.back()->params());
  }
  dist::sync_gradients(r4);

  // DP=2 unsharded replicas on half batches (the bitwise reference).
  std::vector<std::unique_ptr<Session>> s2;
  std::vector<std::unique_ptr<models::Gpt2>> m2;
  std::vector<layers::ParamRegistry*> r2;
  for (int64_t i = 0; i < 2; ++i) {
    s2.push_back(std::make_unique<Session>(sc));
    m2.push_back(make_model({}));
    run_fwd_bwd(*m2.back(), *s2.back(), half(i));
    r2.push_back(&m2.back()->params());
  }
  dist::sync_gradients(r2);

  // DP=2 x TP=2 hybrid: two sharded replicas on the same half batches; the
  // DP ring syncs rank-0 shards with rank-0 shards and peers with peers.
  std::vector<std::unique_ptr<Session>> sh;
  std::vector<std::unique_ptr<models::Gpt2>> mh;
  std::vector<dist::ProcessGroup> pgs;
  pgs.reserve(2);
  std::vector<layers::ParamRegistry*> rank0s, peers;
  for (int64_t i = 0; i < 2; ++i) {
    sh.push_back(std::make_unique<Session>(sc));
    pgs.emplace_back(tp_cluster(2));
    sh.back()->ctx().tp_group = &pgs.back();
    dist::TpConfig tp;
    tp.size = 2;
    mh.push_back(make_model(tp));
    if (mh.back()->tp_peers()) mh.back()->tp_peers()->zero_grads();
    run_fwd_bwd(*mh.back(), *sh.back(), half(i));
    rank0s.push_back(&mh.back()->params());
    peers.push_back(mh.back()->tp_peers());
    ASSERT_NE(peers.back(), nullptr);
  }
  dist::sync_gradients(rank0s);
  dist::sync_gradients(peers);

  // Gradient comparison proper: walk shards and compare grad slices.
  for (int p = 0; p < r2[0]->size(); ++p) {
    const layers::ParamRef ref{p};
    const layers::ShardSpec& spec = rank0s[0]->shard_spec(ref);
    Tensor g_hybrid = Tensor::zeros(rank0s[0]->full_shape(ref), DType::kF32);
    if (!spec.sharded()) {
      g_hybrid.copy_(rank0s[0]->grad(ref));
    } else {
      layers::copy_full_from_shard(rank0s[0]->grad(ref), g_hybrid, spec);
    }
    if (spec.sharded()) {
      for (int pi = 0; pi < peers[0]->size(); ++pi) {
        if (peers[0]->name({pi}) == rank0s[0]->name(ref) + ".tp1") {
          layers::ShardSpec ps = spec;
          ps.index = 1;
          layers::copy_full_from_shard(peers[0]->grad({pi}), g_hybrid, ps);
        }
      }
    }
    const Tensor g_dp2 = r2[0]->grad(ref);
    ASSERT_EQ(std::memcmp(g_hybrid.raw(), g_dp2.raw(), g_dp2.bytes()), 0)
        << "hybrid grad diverged from DP=2 unsharded at '" << r2[0]->name(ref) << "'";

    const auto a = g_hybrid.to_vector();
    const auto b = r4[0]->grad(ref).to_vector();
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a[j], b[j], 1e-5)
          << "hybrid vs DP=4 grad mismatch at '" << r2[0]->name(ref) << "'[" << j << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Graph capture / replay under TP
// ---------------------------------------------------------------------------

TEST(TpGraphTest, CaptureReplayBitwiseUnderTp) {
  models::Gpt2Config cfg;
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.layers = 2;
  cfg.max_len = 64;
  data::LmDataset ds(cfg.vocab, 4096, 61);
  const models::LmBatch batch = ds.batch(0, 2, 12);
  constexpr int kSteps = 6;

  // Arena sized by the shared capacity probe over the TP model.
  dist::ProcessGroup probe_pg(tp_cluster(2));
  core::CapacityScanOptions opt;
  opt.seed = 3;
  opt.headroom = 1.0;
  opt.tp_group = &probe_pg;
  const size_t arena = core::capacity_scan(
                           [&](BufferAllocator* alloc) {
                             models::Gpt2Config c = cfg;
                             c.tp.size = 2;
                             return std::make_unique<models::Gpt2>(
                                 c, System::kLightSeq2, DType::kF32, 67, alloc);
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
    dist::ProcessGroup pg(tp_cluster(2));
    session.ctx().tp_group = &pg;
    models::Gpt2Config c = cfg;
    c.tp.size = 2;
    models::Gpt2 model(c, System::kLightSeq2, DType::kF32, 67, session.param_alloc());
    optim::OptimConfig ocfg;
    ocfg.lr = 0.01f;
    optim::LightSeq2Trainer trainer(model.params(), ocfg);
    TpTrace trace;
    std::vector<double> tp_comm;
    for (int i = 0; i < kSteps; ++i) {
      auto [times, res] = core::train_step(session, model, batch, trainer,
                                           tp_cluster(2));
      trace.losses.push_back(res.loss_sum);
      trace.replayed.push_back(times.replayed);
      tp_comm.push_back(times.tp_comm_us);
    }
    EXPECT_FALSE(session.graph_poisoned());
    // TP collectives are charged identically on every step, replayed or not.
    for (size_t i = 1; i < tp_comm.size(); ++i) EXPECT_DOUBLE_EQ(tp_comm[i], tp_comm[0]);
    return trace;
  };

  const TpTrace eager = run(false);
  const TpTrace graph = run(true);
  ASSERT_EQ(eager.losses.size(), graph.losses.size());
  for (size_t i = 0; i < eager.losses.size(); ++i) {
    EXPECT_EQ(eager.losses[i], graph.losses[i]) << "step " << i;
  }
  // Warm-up, capture, then replays.
  EXPECT_FALSE(graph.replayed[0]);
  EXPECT_FALSE(graph.replayed[1]);
  for (size_t i = 2; i < graph.replayed.size(); ++i) EXPECT_TRUE(graph.replayed[i]);
  for (bool r : eager.replayed) EXPECT_FALSE(r);
}

// ---------------------------------------------------------------------------
// Per-device memory: shard accounting and the capacity win
// ---------------------------------------------------------------------------

TEST(TpMemoryTest, AllocShardReservesOneShardFromTheDeviceAllocator) {
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  mem::MeasuringAllocator probe;
  layers::LayerContext ctx(dev, &probe, layers::policy_for(System::kLightSeq2), 1);
  dist::ProcessGroup pg(tp_cluster(4));
  ctx.tp_group = &pg;

  Tensor t = ctx.alloc_shard({256, 4}, DType::kF32);  // 4096 B full
  EXPECT_EQ(t.shape(), (Shape{256, 4}));              // full-shape compute substrate
  EXPECT_EQ(probe.bytes_in_use(), 1024);              // one shard reserved on-device
  ctx.release_tp_reservations();
  EXPECT_EQ(probe.bytes_in_use(), 0);

  // TP off: plain device allocation.
  ctx.tp_group = nullptr;
  Tensor u = ctx.alloc_shard({256, 4}, DType::kF32);
  EXPECT_EQ(probe.bytes_in_use(), 4096);
  (void)u;
}

// The headline capacity win: the Transformer fits at TP=4 in an activation
// arena that the TP=1 run overflows (probed by the shared capacity scan,
// then demonstrated live against a real arena).
TEST(TpMemoryTest, TransformerFitsAtTp4InAnArenaTp1Overflows) {
  models::TransformerConfig cfg = small_mt_config();
  const models::MtBatch batch = small_mt_batch();

  auto probe = [&](int tp) {
    dist::ProcessGroup pg(tp_cluster(tp));
    core::CapacityScanOptions opt;
    opt.seed = 3;
    opt.tp_group = tp > 1 ? &pg : nullptr;
    return core::capacity_scan(
        [&](BufferAllocator* alloc) {
          models::TransformerConfig c = cfg;
          c.tp.size = tp;
          c.tp.simulate_peers = false;  // timing/memory probe: rank 0 only
          return std::make_unique<models::Transformer>(c, System::kLightSeq2,
                                                       DType::kF32, 21, alloc);
        },
        batch, opt);
  };
  const size_t need_tp1 = probe(1);
  const size_t need_tp4 = probe(4);
  EXPECT_LT(need_tp4, need_tp1) << "TP=4 must shrink the per-device activation peak";

  auto run_step = [&](int tp, size_t arena_bytes) {
    SessionConfig sc;
    sc.system = System::kLightSeq2;
    sc.dtype = DType::kF32;
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.arena_bytes = arena_bytes;
    Session session(sc);
    dist::ProcessGroup pg(tp_cluster(tp));
    if (tp > 1) session.ctx().tp_group = &pg;
    models::TransformerConfig c = cfg;
    c.tp.size = tp;
    c.tp.simulate_peers = false;
    models::Transformer model(c, System::kLightSeq2, DType::kF32, 21,
                              session.param_alloc());
    optim::OptimConfig ocfg;
    optim::LightSeq2Trainer trainer(model.params(), ocfg);
    (void)core::train_step(session, model, batch, trainer,
                           tp > 1 ? tp_cluster(tp) : dist::ClusterConfig{});
  };

  // TP=4 trains inside the TP=4-sized arena; the unsharded model overflows it.
  run_step(4, need_tp4);
  EXPECT_THROW(run_step(1, need_tp4), mem::OutOfMemory);
}

}  // namespace
}  // namespace ls2
