// Telemetry figure (DESIGN.md §12): the unified observability subsystem on
// real workloads.
//
//   [snapshot]  a training run and a serving run feed one MetricsRegistry;
//               the JSON snapshot carries both (plus the device scrape) and
//               is byte-identical across two seeded runs — the golden
//               contract, demonstrated here at bench scale.
//   [roofline]  the top-K kernel-family table built from REGISTRY DATA
//               ALONE (no simgpu access after the scrape), with the
//               coverage identity: sum of family exec time + exposed comm +
//               other busy time == DeviceStats::busy_us within 1%.
//   [overhead]  the same training steps with metrics enabled vs disabled:
//               the SIMULATED step time is identical (instrumentation is
//               host-side only, it never charges device time) and the HOST
//               wall-clock cost of recording stays under 1% of a step.
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/roofline.h"

namespace ls2::bench {
namespace {

std::vector<std::string> g_rows;

void push_row(const char* fmt, ...) {
  char buf[640];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  g_rows.emplace_back(buf);
}

void write_json() {
  std::filesystem::create_directories("bench");
  std::ofstream out("bench/fig_obs.json");
  out << "{\n  \"figure\": \"fig_obs\",\n  \"schema\": 1,\n  \"configs\": [";
  for (size_t i = 0; i < g_rows.size(); ++i)
    out << (i == 0 ? "\n    " : ",\n    ") << g_rows[i];
  out << "\n  ]\n}\n";
  std::printf("\nwrote %zu configs to bench/fig_obs.json\n", g_rows.size());
}

// ---------------------------------------------------------------------------
// Shared workloads
// ---------------------------------------------------------------------------

SessionConfig train_session(obs::MetricsRegistry* reg, uint64_t seed) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.seed = seed;
  sc.metrics = reg;
  return sc;
}

/// Steady-state MT training (model-only, overlapped 4-GPU DP), optionally
/// feeding `reg`; construction runs one warm-up step. The registry is the
/// ONLY difference between the enabled and disabled arms of the overhead
/// measurement.
class TrainLoop {
 public:
  explicit TrainLoop(obs::MetricsRegistry* reg, uint64_t seed = 17)
      : session_(train_session(reg, seed)),
        model_(models::TransformerConfig::base(6, 6), System::kLightSeq2, DType::kF16, seed),
        trainer_(model_.params(), optim::OptimConfig{}),
        batches_(data::make_mt_batches(
            data::MtDataset(model_.config().vocab, 64, 10, 40, seed), 4096, DType::kF16)),
        batch_(data::largest_batch(batches_)) {
    cluster_.overlap = true;
    (void)step();
  }

  /// One training step; returns its host wall-clock in us.
  double step() {
    const auto t0 = std::chrono::steady_clock::now();
    (void)core::train_step(session_, model_, batch_, trainer_, cluster_);
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  Session& session() { return session_; }

 private:
  Session session_;
  models::Transformer model_;
  optim::LightSeq2Trainer trainer_;
  std::vector<models::MtBatch> batches_;
  const models::MtBatch& batch_;
  dist::ClusterConfig cluster_{4, 1};
};

/// `steps` training steps after the warm-up, feeding `reg` and then the
/// device scrape.
void run_train(obs::MetricsRegistry& reg, int steps, uint64_t seed = 17) {
  TrainLoop loop(&reg, seed);
  for (int i = 0; i < steps; ++i) (void)loop.step();
  obs::collect_device_metrics(reg, loop.session().device(), "device");
}

/// A seeded serving run feeding `reg` under the "serve" prefix; returns the
/// report for the printed summary.
infer::ServeReport run_serve(obs::MetricsRegistry& reg, uint64_t seed = 23) {
  models::Gpt2Config cfg;
  cfg.vocab = 512;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.layers = 4;
  cfg.max_len = 128;
  const int64_t slots = 4, max_len = 96;
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.arena_bytes = infer::serve_capacity_scan(cfg, DType::kF16, slots, max_len, 16);
  sc.graph_capture = true;
  sc.metrics = &reg;
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF16, 31, s.param_alloc());
  infer::KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  infer::ContinuousBatcher engine(s, model, cache, {});
  const auto reqs = infer::poisson_requests(64, /*rate=*/8000.0, 4, 12, 8, 24,
                                            cfg.vocab, seed);
  return engine.serve(reqs);
}

// ---------------------------------------------------------------------------
// Section 1: unified snapshot (training + serving + device scrape)
// ---------------------------------------------------------------------------

void bench_snapshot() {
  print_header("Unified metrics snapshot: training + serving in one registry");
  auto snapshot = [](uint64_t seed) {
    obs::MetricsRegistry reg;
    run_train(reg, /*steps=*/3, seed);
    (void)run_serve(reg, seed + 6);
    return reg.to_json();
  };
  const std::string a = snapshot(17);
  const std::string b = snapshot(17);
  const bool identical = a == b;

  // Re-load the snapshot's quantiles for the schema sanity row. Registry
  // state is re-derived (not parsed from JSON) on a third identical run.
  obs::MetricsRegistry reg;
  run_train(reg, 3, 17);
  const infer::ServeReport serve = run_serve(reg, 23);
  const obs::Histogram& lat = reg.histograms().at("serve.latency_us");
  const obs::Histogram& step = reg.histograms().at("train.step_us");
  std::printf("snapshot bytes             %zu\n", a.size());
  std::printf("byte-identical re-run      %s\n", identical ? "yes" : "NO");
  std::printf("train.step_us p50/p99      %.1f / %.1f us over %lld steps\n",
              step.quantile(0.5), step.quantile(0.99),
              static_cast<long long>(step.count()));
  std::printf("serve.latency_us p50/p99   %.1f / %.1f us over %lld served\n",
              lat.quantile(0.5), lat.quantile(0.99),
              static_cast<long long>(lat.count()));
  std::printf("serve availability         %.3f\n",
              reg.gauges().at("serve.slo.availability"));
  push_row("{\"section\": \"snapshot\", \"snapshot_bytes\": %zu, "
           "\"identical_rerun\": %s, \"served\": %lld, "
           "\"latency_count\": %lld, \"latency_min_us\": %.3f, "
           "\"latency_p50_us\": %.3f, \"latency_p99_us\": %.3f, "
           "\"latency_max_us\": %.3f, \"step_p50_us\": %.3f, "
           "\"step_p99_us\": %.3f, \"availability\": %.4f}",
           a.size(), identical ? "true" : "false",
           static_cast<long long>(serve.served),
           static_cast<long long>(lat.count()), lat.min(), lat.quantile(0.5),
           lat.quantile(0.99), lat.max(), step.quantile(0.5),
           step.quantile(0.99), reg.gauges().at("serve.slo.availability"));
}

// ---------------------------------------------------------------------------
// Section 2: roofline from registry data alone
// ---------------------------------------------------------------------------

void bench_roofline() {
  print_header("Roofline: top kernel families vs device peaks (from the registry)");
  obs::MetricsRegistry reg;
  run_train(reg, /*steps=*/3, 17);
  // Everything below reads ONLY the registry — the device is gone.
  const obs::RooflineReport report =
      obs::build_roofline(reg, simgpu::v100(), "device");
  std::printf("%s\n", obs::format_roofline(report, 8).c_str());

  const double coverage =
      report.busy_us > 0 ? report.covered_us() / report.busy_us : 0.0;
  size_t k = 0;
  for (const obs::RooflineEntry& e : report.entries) {
    if (k++ >= 8) break;
    push_row("{\"section\": \"roofline\", \"family\": \"%s\", "
             "\"launches\": %lld, \"exec_us\": %.3f, \"share\": %.4f, "
             "\"achieved_gb_s\": %.1f, \"achieved_tflops\": %.3f, "
             "\"utilization\": %.4f, \"compute_bound\": %s, "
             "\"tensor_core\": %s}",
             e.family.c_str(), static_cast<long long>(e.launches), e.exec_us,
             e.share, e.achieved_gb_s, e.achieved_tflops, e.utilization,
             e.compute_bound ? "true" : "false",
             e.tensor_core ? "true" : "false");
  }
  push_row("{\"section\": \"roofline_coverage\", \"families\": %zu, "
           "\"kernel_us\": %.3f, \"exposed_comm_us\": %.3f, "
           "\"other_busy_us\": %.3f, \"busy_us\": %.3f, \"coverage\": %.6f}",
           report.entries.size(), report.kernel_us, report.exposed_comm_us,
           report.other_busy_us, report.busy_us, coverage);
}

// ---------------------------------------------------------------------------
// Section 3: instrumentation overhead
// ---------------------------------------------------------------------------

void bench_overhead() {
  print_header("Instrumentation overhead: metrics enabled vs disabled");
  obs::MetricsRegistry reg;
  // Simulated time: two fresh loops, one feeding the registry, run the same
  // steps and must charge EXACTLY the same device time (the instrumentation
  // never touches the device clock).
  const int sim_steps = 20;
  auto sim_us = [&](obs::MetricsRegistry* r) {
    TrainLoop loop(r);
    const double t0 = loop.session().device().clock_us();
    for (int i = 0; i < sim_steps; ++i) (void)loop.step();
    return loop.session().device().clock_us() - t0;
  };
  const double sim_on = sim_us(&reg), sim_off = sim_us(nullptr);
  const double sim_delta_us = sim_on - sim_off;

  // Host time: ONE loop steps with the registry attached and detached in
  // back-to-back pairs, the order flipping every pair, so both arms share
  // every object (heap layout included) and the machine's drift. The
  // overhead is the MEDIAN paired difference. A step is ~0.4 ms of host
  // time: a min over a few whole runs per arm was decided by which arm met
  // a quiet moment, and two separate loops differ by up to ±0.5% with no
  // registry attached to either.
  const int pairs = 400;
  TrainLoop loop(&reg);
  auto host_us = [&](obs::MetricsRegistry* r) {
    loop.session().set_metrics(r);
    return loop.step();
  };
  std::vector<double> host_on, host_off, host_delta;
  for (int p = 0; p < pairs; ++p) {
    double t_on, t_off;
    if (p % 2 == 0) {
      t_on = host_us(&reg);
      t_off = host_us(nullptr);
    } else {
      t_off = host_us(nullptr);
      t_on = host_us(&reg);
    }
    host_on.push_back(t_on);
    host_off.push_back(t_off);
    host_delta.push_back(t_on - t_off);
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double step_on = median(host_on), step_off = median(host_off);
  const double overhead_pct = std::max(0.0, median(host_delta) / step_off * 100.0);
  std::printf("simulated step time        %.3f us (enabled) vs %.3f us (disabled)"
              " -> delta %.6f us\n",
              sim_on / sim_steps, sim_off / sim_steps, sim_delta_us);
  std::printf("host wall per step         %.1f us (enabled) vs %.1f us (disabled), "
              "medians of %d pairs\n",
              step_on, step_off, pairs);
  std::printf("host overhead              %.3f%% of a step (budget: < 1%%)\n",
              overhead_pct);
  push_row("{\"section\": \"overhead\", \"steps\": %d, "
           "\"sim_step_us_enabled\": %.6f, \"sim_step_us_disabled\": %.6f, "
           "\"sim_delta_us\": %.6f, \"host_step_us_enabled\": %.3f, "
           "\"host_step_us_disabled\": %.3f, \"overhead_pct\": %.4f}",
           pairs, sim_on / sim_steps, sim_off / sim_steps, sim_delta_us, step_on,
           step_off, overhead_pct);
}

}  // namespace
}  // namespace ls2::bench

int main() {
  return ls2::bench::guarded_main("fig_obs", [] {
    ls2::bench::bench_snapshot();
    ls2::bench::bench_roofline();
    ls2::bench::bench_overhead();
    ls2::bench::write_json();
    return 0;
  });
}
