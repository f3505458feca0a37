// 3D parallelism (DESIGN.md §7 + §9): every (dp, tp, pp) tiling of an
// 8-GPU cluster (2 nodes x 4 A100s) training Transformer-Big FP16 on one
// FIXED global batch — the composition the paper's hybrid stack builds to.
//
// The sweep holds the global batch constant, so rows/replica = 256/dp and
// throughput = global tokens / step time is directly comparable across
// tilings. Reported per configuration:
//   * per-step time (rank 0's StepTimes total) and throughput;
//   * the 1F1B pipeline costs: bubble (rank-0 lane idle), boundary p2p
//     total and exposed;
//   * the DP gradient ring: wire bytes (per-stage shards under PP) and the
//     blocking tail after the last bucket;
//   * rank-0 memory: parameters+grads and the activation peak — PP divides
//     both by the stage count.
//
// The headline rows: a pp > 1 tiling beats BOTH pure-DP (8,1,1) — whose
// cross-node ring over the full parameter set dwarfs its 32-row compute —
// and pure-TP (2,4,1), whose per-sublayer collectives tax every block.
// The capacity section shows the other PP win: an arena sized for the
// pp=4 rank-0 stage trains, while the unpartitioned model overflows it.
//
// Machine-readable output: bench/fig_3d.json (schema-checked by
// ci/check_bench_json.py in CI). Run with --trace to also export the
// (4,1,2) tiling's 1F1B schedule — per-rank lanes, stage/microbatch span
// names — as bench/fig_3d_trace.json (open in chrome://tracing/Perfetto).
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace ls2;
using namespace ls2::bench;

namespace {

constexpr int kWorld = 8;  // 2 nodes x 4 GPUs
constexpr int64_t kGlobalRows = 256;

dist::ClusterConfig cluster_3d(int dp, int tp, int pp, int m) {
  dist::ClusterConfig c;
  c.gpus_per_node = 4;
  c.nodes = 2;
  c.tensor_parallel = tp;
  c.pipeline_parallel = pp;
  c.microbatches = pp > 1 ? m : 1;
  LS2_CHECK_EQ(dp * tp * pp, kWorld) << "tiling must cover the cluster";
  return c;
}

struct Row {
  int dp = 1, tp = 1, pp = 1, m = 1;
  double step_us = 0;
  double tokens_per_sec = 0;
  double pp_bubble_us = 0, pp_comm_us = 0, pp_exposed_us = 0;
  double sync_blocking_us = 0;
  int64_t wire_bytes = 0;
  int64_t params_bytes = 0, act_peak_bytes = 0;
};

/// First `rows` sentence pairs of the batch (PP slices along dim 0).
models::MtBatch take_rows(const models::MtBatch& big, int64_t rows) {
  LS2_CHECK_GE(big.src_ids.shape()[0], rows);
  models::MtBatch b = big;
  b.src_ids = big.src_ids.slice(0, rows);
  b.tgt_in = big.tgt_in.slice(0, rows);
  b.tgt_out = big.tgt_out.slice(0, rows);
  b.src_lens = big.src_lens.slice(0, rows);
  b.tgt_lens = big.tgt_lens.slice(0, rows);
  b.tokens = big.tokens * rows / big.src_ids.shape()[0];
  return b;
}

/// Warm-up + measured train_step of Transformer-Big under one (dp, tp, pp)
/// tiling. Each DP replica trains its 256/dp-row share of the global batch;
/// rank 0's stage-0 shard is the reported device footprint.
Row measure(const models::TransformerConfig& cfg, const models::MtBatch& global,
            int dp, int tp, int pp, int m, bool trace = false) {
  Row row;
  row.dp = dp;
  row.tp = tp;
  row.pp = pp;
  row.m = pp > 1 ? m : 1;
  const models::MtBatch batch = take_rows(global, kGlobalRows / dp);

  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.profile = simgpu::a100();
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.seed = 17;
  sc.record_timeline = trace;
  Session session(sc);
  const dist::ClusterConfig cluster = cluster_3d(dp, tp, pp, m);
  dist::ProcessGroup pg(cluster);
  if (tp > 1) session.ctx().tp_group = &pg;

  models::TransformerConfig c = cfg;
  c.tp.size = tp;
  c.tp.simulate_peers = false;
  models::Transformer model(c, System::kLightSeq2, DType::kF16, 17,
                            session.param_alloc());
  optim::OptimConfig ocfg;
  auto trainer = optim::make_trainer(System::kLightSeq2, model.params(), ocfg,
                                     session.param_alloc());

  (void)core::train_step(session, model, batch, *trainer, cluster);  // warm-up
  auto [times, res] = core::train_step(session, model, batch, *trainer, cluster);
  // Rank 0's step time. Under PP the device clock runs every stage's chunks
  // back to back, so its delta would overstate the step.
  row.step_us = times.total_us();
  row.tokens_per_sec =
      static_cast<double>(batch.tokens) * dp / (row.step_us * 1e-6);
  row.pp_bubble_us = times.pp_bubble_us;
  row.pp_comm_us = times.pp_comm_us;
  row.pp_exposed_us = times.pp_exposed_us;
  row.sync_blocking_us = times.sync_blocking_us;
  row.wire_bytes = times.wire_bytes;
  row.params_bytes = session.permanent_bytes();
  row.act_peak_bytes = session.activations().peak_bytes();
  if (trace) {
    std::filesystem::create_directories("bench");
    session.device().timeline().write_chrome_trace("bench/fig_3d_trace.json");
    std::printf("wrote 1F1B Chrome trace to bench/fig_3d_trace.json\n");
  }
  return row;
}

std::vector<Row> g_rows;

struct CapacityDemo {
  size_t arena_bytes = 0;
  size_t pp1_peak_bytes = 0;
  bool pp4_fits = false;
  bool pp1_overflows = false;
} g_capacity;

void write_json() {
  std::filesystem::create_directories("bench");
  std::ofstream out("bench/fig_3d.json");
  out << "{\n  \"figure\": \"fig_3d\",\n  \"schema\": 1,\n  \"model\": "
         "\"transformer-big\",\n  \"profile\": \"a100\",\n  \"world\": 8,\n  "
         "\"global_rows\": 256,\n  \"configs\": [";
  char buf[512];
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"dp\": %d, \"tp\": %d, \"pp\": %d, \"microbatches\": %d, "
        "\"step_us\": %.1f, \"tokens_per_sec\": %.0f, \"pp_bubble_us\": %.1f, "
        "\"pp_comm_us\": %.1f, \"pp_exposed_us\": %.1f, \"sync_blocking_us\": %.1f, "
        "\"wire_mb\": %.1f, \"params_mb\": %.1f, \"act_peak_mb\": %.1f}",
        i == 0 ? "" : ",", r.dp, r.tp, r.pp, r.m, r.step_us,
        r.tokens_per_sec, r.pp_bubble_us, r.pp_comm_us, r.pp_exposed_us,
        r.sync_blocking_us, r.wire_bytes / 1e6, r.params_bytes / 1e6,
        r.act_peak_bytes / 1e6);
    out << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\n  ],\n  \"capacity\": {\"model\": \"transformer-big\", "
                "\"arena_mb\": %.1f, \"pp1_need_mb\": %.1f, \"pp4_fits\": %s, "
                "\"pp1_overflows\": %s}\n}\n",
                g_capacity.arena_bytes / 1e6, g_capacity.pp1_peak_bytes / 1e6,
                g_capacity.pp4_fits ? "true" : "false",
                g_capacity.pp1_overflows ? "true" : "false");
  out << buf;
  std::printf("\nwrote %zu configs to bench/fig_3d.json\n", g_rows.size());
}

}  // namespace

static int bench_body(int argc, char** argv) {
  const bool trace = argc > 1 && std::strcmp(argv[1], "--trace") == 0;
  const models::TransformerConfig cfg = models::TransformerConfig::big();
  data::MtDataset ds(cfg.vocab, 2048, 8, 70, 17);
  auto batches = data::make_mt_batches(ds, /*batch_tokens=*/32768, DType::kF16);
  const models::MtBatch& global = data::largest_batch(batches);
  LS2_CHECK_GE(global.src_ids.shape()[0], kGlobalRows)
      << "bucketed batch too small for the fixed global batch";

  print_header(
      "3D parallelism: (dp, tp, pp) tilings of 2 nodes x 4 A100s, "
      "Transformer-Big FP16, fixed 256-row global batch");
  std::printf("%3s %3s %3s %3s %10s %12s %11s %11s %11s %11s %9s %9s\n", "dp", "tp",
              "pp", "m", "step_us", "tok/s", "bubble_us", "pp_comm_us", "pp_exposed",
              "sync_block", "params_MB", "act_MB");

  auto report = [&](const Row& r) {
    g_rows.push_back(r);
    std::printf("%3d %3d %3d %3d %10.0f %12.0f %11.0f %11.0f %11.0f %11.0f %9.1f %9.1f\n",
                r.dp, r.tp, r.pp, r.m, r.step_us, r.tokens_per_sec, r.pp_bubble_us,
                r.pp_comm_us, r.pp_exposed_us, r.sync_blocking_us,
                r.params_bytes / 1e6, r.act_peak_bytes / 1e6);
  };

  // Microbatch counts are tuned per tiling: deeper pipes want more chunks to
  // shrink the (pp-1)/(m+pp-1) bubble, but each extra chunk re-pays the
  // per-launch overheads, so shallow pipes run coarse.
  const int tilings[][4] = {{8, 1, 1, 1}, {4, 2, 1, 1}, {2, 4, 1, 1}, {4, 1, 2, 4},
                            {2, 2, 2, 4}, {1, 4, 2, 4}, {2, 1, 4, 4}, {1, 2, 4, 8}};
  for (const auto& t : tilings)
    report(measure(cfg, global, t[0], t[1], t[2], t[3],
                   trace && t[2] > 1 && t[1] == 1 && t[0] == 4));

  // The sweep's point: some pipelined tiling out-runs both non-PP extremes.
  double best_pp = 0, pure_dp = 0, pure_tp = 0;
  for (const Row& r : g_rows) {
    if (r.pp > 1) best_pp = std::max(best_pp, r.tokens_per_sec);
    if (r.dp == kWorld) pure_dp = r.tokens_per_sec;
    if (r.tp == 4 && r.pp == 1) pure_tp = std::max(pure_tp, r.tokens_per_sec);
  }
  std::printf("\nbest pp>1: %.0f tok/s vs pure-DP %.0f, pure-TP %.0f\n", best_pp,
              pure_dp, pure_tp);
  LS2_CHECK(best_pp > pure_dp && best_pp > pure_tp)
      << "a pipelined tiling no longer beats the pure-DP/pure-TP extremes";

  std::printf(
      "\nPure DP at 8 ranks drowns in the cross-node ring over the full parameter\n"
      "set; PP shrinks each rank's DP shard to 1/pp of the model and overlaps the\n"
      "per-stage rings with the remaining microbatch backwards, paying only the\n"
      "1F1B bubble (pp-1)/(m+pp-1) and the boundary activation hops in exchange.\n");

  // --- Capacity: an arena sized for the pp=4 rank-0 stage trains at pp=4
  // but overflows when the whole model's activations land on one device.
  print_header("Capacity: Transformer-Big arena sized by the pp=4 stage-0 peak");
  {
    const models::MtBatch batch = take_rows(global, kGlobalRows);

    auto run_pp = [&](int pp, size_t arena_bytes, size_t* peak_out) {
      SessionConfig sc;
      sc.system = System::kLightSeq2;
      sc.profile = simgpu::a100();
      sc.mode = simgpu::ExecMode::kModelOnly;
      sc.dtype = DType::kF16;
      sc.seed = 17;
      sc.arena_bytes = arena_bytes;
      Session session(sc);
      models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 17,
                                session.param_alloc());
      optim::OptimConfig ocfg;
      auto trainer = optim::make_trainer(System::kLightSeq2, model.params(), ocfg,
                                         session.param_alloc());
      try {
          dist::ClusterConfig one_node;  // memory demo: dp only pads sync time
        one_node.gpus_per_node = 4;
        one_node.pipeline_parallel = pp;
        one_node.microbatches = pp > 1 ? 16 : 1;
        (void)core::train_step(session, model, batch, *trainer, one_node);
        if (peak_out) *peak_out = session.activations().peak_bytes();
        return true;
      } catch (const mem::OutOfMemory&) {
        return false;
      }
    };

    // Probe both peaks on the dynamic allocator, then size the arena off the
    // pp=4 stage-0 footprint (arena carving needs a little slack over the
    // caching allocator's byte count).
    size_t pp4_peak = 0;
    LS2_CHECK(run_pp(4, 0, &pp4_peak)) << "pp=4 probe failed";
    LS2_CHECK(run_pp(1, 0, &g_capacity.pp1_peak_bytes)) << "pp=1 probe failed";
    g_capacity.arena_bytes = pp4_peak + pp4_peak / 4 + (1 << 20);

    g_capacity.pp4_fits = run_pp(4, g_capacity.arena_bytes, nullptr);
    g_capacity.pp1_overflows = !run_pp(1, g_capacity.arena_bytes, nullptr);
    std::printf("arena (pp=4 peak + slack): %8.1f MB\n", g_capacity.arena_bytes / 1e6);
    std::printf("pp=1 would need:           %8.1f MB\n",
                g_capacity.pp1_peak_bytes / 1e6);
    std::printf("pp=4 in that arena:        %s\n", g_capacity.pp4_fits ? "fits" : "OOM");
    std::printf("pp=1 in that arena:        %s\n",
                g_capacity.pp1_overflows ? "OOM (as it must)" : "fits (?!)");
    LS2_CHECK(g_capacity.pp4_fits && g_capacity.pp1_overflows)
        << "the capacity demonstration regressed";
  }

  write_json();
  return 0;
}

int main(int argc, char** argv) {
  return ls2::bench::guarded_main("fig_3d", [&] { return bench_body(argc, argv); });
}
