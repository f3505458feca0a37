// ls2_bench: the repository benchmark. Five workloads -- three training, two
// serving -- run through the public API only. End-to-end metrics come from
// the simulated-device clock (what the paper's figures report), plus set-up
// time on the host clock; per-layer metrics, host step times among them,
// come from a traced run. bench/suite/README.md defines every workload and
// metric, and bench/suite/run.py builds this program and runs it.
//
//   ls2_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR] [--out FILE]
//
// One process runs one workload. It repeats PASSES, each a fresh
// construction (timed as set-up) followed by the workload's measured phase,
// until --seconds have elapsed and at least kMinPasses have run. The seed
// drives only the input generators; model and initialisation seeds are
// fixed. Simulated-clock results are therefore a pure function of the seed,
// and every pass must reproduce the first pass exactly (a correctness
// check). Host-clock results are medians over all passes.
//
// Output: one `workload metric value unit` line per metric, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer ones. The exit code is
// nonzero when any correctness check fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/lightseq2.h"
#include "gemm/gemm.h"

namespace {

using namespace ls2;
using layers::System;

// ------------------------------------------------------------------ metrics

struct MetricDef {
  std::string name;
  std::string unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"). Training and serving read each one in their own terms;
// README.md gives both definitions.
const std::vector<MetricDef> kEndToEnd = {
    {"sim_tokens_per_s", "tok/s"}, {"sim_latency_p50_ms", "ms"}, {"sim_latency_tail_ms", "ms"},
    {"peak_mem_mb", "MB"},         {"setup_s", "s"},
};

// Non-GEMM kernel families (src/kernels/) reported one by one: together they
// cover at least 90% of non-GEMM kernel time on every workload. The rest
// lands in kernels.other.ms; GEMMs are the gemm layer's.
constexpr const char* kKernelFamilies[] = {
    "ls2.adam",                  "ls2.zero_grad",
    "ls2.bias_grad",             "ls2.add",
    "ls2.bias_relu_dropout_fw",  "ls2.bias_relu_dropout_bw",
    "ls2.bias_gelu_dropout_fw",  "ls2.bias_gelu_dropout_bw",
    "ls2.bias_dropout_residual_fw", "ls2.bias_dropout_residual_bw",
    "ls2.dropout_fw",            "ls2.dropout_bw",
    "ls2.layernorm_fw",          "ls2.layernorm_bw_dx",
    "ls2.layernorm_bw_dparam",   "ls2.criterion_fw",
    "ls2.criterion_bw",          "ls2.attn_softmax_fw",
    "ls2.softmax_bw",            "ls2.bias_split_transpose",
    "ls2.split_transpose_bw",    "ls2.merge_heads",
    "ls2.merge_heads_bw",        "ls2.kv_gather",
    "ls2.kv_store_paged",        "ls2.kv_append_paged",
    "ls2.argmax",
};

// The per-layer metrics (BENCHMARK.json "per_layer"); a layer is a module of
// src/. Sim-clock values and counts are totals over one pass's measured
// phase unless the name says otherwise; a metric a workload does not
// exercise reads 0.
std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      {"core.forward_ms", "ms"},          {"core.backward_ms", "ms"},
      {"core.sync_ms", "ms"},             {"core.update_ms", "ms"},
      {"core.host_step_ms_p50", "ms"},    {"core.host_step_ms_p90", "ms"},
      {"core.host_cpu_ms_per_step", "ms"},
      {"simgpu.launches", "count"},       {"simgpu.busy_ms", "ms"},
      {"simgpu.launch_gap_ms", "ms"},     {"simgpu.alloc_stall_ms", "ms"},
      {"simgpu.graph_replays", "count"},  {"simgpu.utilization", "ratio"},
  };
  for (const char* f : kKernelFamilies) d.push_back({std::string("kernels.") + f + ".ms", "ms"});
  d.push_back({"kernels.other.ms", "ms"});
  const std::vector<MetricDef> rest = {
      {"gemm.ms", "ms"},                  {"gemm.attention.ms", "ms"},
      {"gemm.tflops", "TFLOP/s"},
      {"gemm.host_gflops", "GFLOP/s"},
      {"memory.permanent_mb", "MB"},      {"memory.activation_peak_mb", "MB"},
      {"memory.arena_mb", "MB"},          {"memory.alloc_events", "count"},
      {"optim.update_overlapped_ms", "ms"}, {"optim.state_mb", "MB"},
      {"dist.wire_mb", "MB"},             {"dist.comm_transfers", "count"},
      {"dist.comm_ms", "ms"},             {"dist.sync_hidden_ratio", "ratio"},
      {"dist.tp_comm_ms", "ms"},          {"dist.tp_exposed_ms", "ms"},
      {"dist.pp_bubble_ms", "ms"},        {"dist.pp_exposed_ms", "ms"},
      {"data.batches", "count"},          {"data.pad_ratio", "ratio"},
      {"infer.sent", "count"},            {"infer.served", "count"},
      {"infer.shed", "count"},            {"infer.preemptions", "count"},
      {"infer.decode_retries", "count"},
      {"infer.ttft_ms_p50", "ms"},        {"infer.ttft_ms_p99", "ms"},
      {"infer.tpot_ms_p50", "ms"},        {"infer.tpot_ms_p99", "ms"},
      {"infer.queue_ms_p50", "ms"},       {"infer.queue_ms_p99", "ms"},
      {"infer.feed_lag_ms_p99", "ms"},    {"infer.slo_ok_ratio", "ratio"},
      {"infer.prefill_ms", "ms"},         {"infer.decode_ms", "ms"},
      {"infer.idle_ms", "ms"},            {"infer.decode_steps", "count"},
      {"infer.replayed_steps", "count"},  {"infer.decode_step_ms_p50", "ms"},
      {"infer.lane_occupancy", "ratio"},  {"infer.kv.live_page_ratio", "ratio"},
      {"infer.kv.prefix_hit_ratio", "ratio"}, {"infer.kv.prefill_pages", "count"},
      {"infer.kv.peak_pages", "count"},   {"infer.host_step_ms_p50", "ms"},
      {"obs.trace_overhead_pct", "%"},    {"common.parallel_for_us", "us"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}

using Metrics = std::map<std::string, double>;

double median(std::vector<double> v) { return obs::exact_percentile(std::move(v), 0.5); }
double pct(std::vector<double> v, double q) { return obs::exact_percentile(std::move(v), q); }

// ---------------------------------------------------------------- checking

/// Correctness violations found so far; any one makes the run fail.
std::vector<std::string> g_failures;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    g_failures.push_back(what);
  }
}

bool near(double a, double b, double rel = 1e-9) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

// ------------------------------------------------------------- host clock

using Clock = std::chrono::steady_clock;
const Clock::time_point g_start = Clock::now();

double host_s() { return std::chrono::duration<double>(Clock::now() - g_start).count(); }
double cpu_s() { return static_cast<double>(std::clock()) / CLOCKS_PER_SEC; }

/// The benchmark's own host-clock spans around calls into the library,
/// kept in memory and written into the trace as a separate process.
struct HostTrace {
  struct Span {
    std::string name;
    double begin_us, end_us;
  };
  std::vector<Span> spans;
};

/// A host-clock span, closed by end() or at scope exit. It is recorded when
/// `trace` is non-null (traced passes) and its length in seconds is stored
/// into `*elapsed_s` when that is non-null.
class HostSpan {
 public:
  HostSpan(HostTrace* trace, std::string name, double* elapsed_s = nullptr)
      : trace_(trace), name_(std::move(name)), elapsed_s_(elapsed_s),
        begin_us_(host_s() * 1e6) {}
  ~HostSpan() { end(); }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

  void end() {
    if (done_) return;
    done_ = true;
    const double end_us = host_s() * 1e6;
    if (elapsed_s_) *elapsed_s_ = (end_us - begin_us_) * 1e-6;
    if (trace_) trace_->spans.push_back({std::move(name_), begin_us_, end_us});
  }

 private:
  HostTrace* trace_;
  std::string name_;
  double* elapsed_s_;
  double begin_us_;
  bool done_ = false;
};

// --------------------------------------------------------------- passes

struct PassEnv {
  bool first = false;  ///< the first pass runs the once-per-run parity checks
  bool traced = false;
  obs::MetricsRegistry* registry = nullptr;
  HostTrace* host = nullptr;
  std::string trace_dir, workload;  ///< traced pass: where its files go
};

struct PassOut {
  double setup_s = 0;
  double measure_s = 0;              ///< host wall of the measured phase
  std::vector<double> host_step_ms;  ///< per train step / engine step
  std::vector<double> host_cpu_ms;   ///< process CPU per train step
  Metrics sim;     ///< sim-clock end-to-end metrics (deterministic)
  Metrics layers;  ///< sim-clock and count per-layer metrics (deterministic)
  int64_t attempted = 0, failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run_pass(const PassEnv& env, PassOut& out) = 0;
};

/// Device counters at the start of a measured phase; the per-layer device
/// metrics are deltas against it.
struct DeviceSnapshot {
  explicit DeviceSnapshot(const simgpu::Device& d)
      : stats(d.stats()), kernels(d.per_kernel()), ranges(d.range_times()) {}
  simgpu::DeviceStats stats;
  std::map<std::string, simgpu::KernelStats> kernels;
  std::map<std::string, double> ranges;
};

double range_delta_us(const simgpu::Device& dev, const DeviceSnapshot& s0,
                      const std::string& range) {
  const auto it = s0.ranges.find(range);
  return dev.range_time_us(range) - (it == s0.ranges.end() ? 0.0 : it->second);
}

/// Every workload runs the LightSeq2 system, whose non-GEMM kernels are all
/// named "ls2.*"; GEMM launches carry their layer's tag ("ffn.fc1.fw").
bool is_gemm(const std::string& name) { return name.rfind("ls2.", 0) != 0; }

/// The batched GEMMs inside attention (scores, context and their
/// backward), as opposed to the Q/K/V/output projections.
bool is_attention_gemm(const std::string& name) {
  return name.rfind("attn.", 0) == 0 && name.find("_proj") == std::string::npos;
}

/// A kernel's family is its name, except that the attention softmax's
/// shape-tuned variants ("ls2.attn_softmax_fw.4warp") fold into one.
std::string family_of(const std::string& name) {
  const std::string softmax = "ls2.attn_softmax_fw";
  return name.rfind(softmax, 0) == 0 ? softmax : name;
}

void add_device_layers(const simgpu::Device& dev, const DeviceSnapshot& s0, Metrics& m) {
  const simgpu::DeviceStats& a = s0.stats;
  const simgpu::DeviceStats& b = dev.stats();
  const double busy = b.busy_us - a.busy_us;
  const double overhead = b.overhead_us - a.overhead_us;
  m["simgpu.launches"] = static_cast<double>(b.launches - a.launches);
  m["simgpu.busy_ms"] = busy / 1e3;
  m["simgpu.launch_gap_ms"] = (b.launch_gap_us - a.launch_gap_us) / 1e3;
  m["simgpu.alloc_stall_ms"] = (b.alloc_stall_us - a.alloc_stall_us) / 1e3;
  m["simgpu.graph_replays"] = static_cast<double>(b.graph_replays - a.graph_replays);
  m["simgpu.utilization"] = busy + overhead > 0 ? busy / (busy + overhead) : 0.0;
  m["memory.alloc_events"] = b.alloc_events - a.alloc_events;
  m["dist.comm_transfers"] = static_cast<double>(b.comm_transfers - a.comm_transfers);
  m["dist.comm_ms"] = (b.comm_us - a.comm_us) / 1e3;

  std::map<std::string, double> family_us;
  double other_us = 0, gemm_us = 0, gemm_flops = 0, attention_us = 0;
  for (const auto& [name, ks] : dev.per_kernel()) {
    const auto it = s0.kernels.find(name);
    const simgpu::KernelStats k0 = it == s0.kernels.end() ? simgpu::KernelStats{} : it->second;
    const double us = ks.exec_us - k0.exec_us;
    if (is_gemm(name)) {
      gemm_us += us;
      gemm_flops += ks.flops - k0.flops;
      if (is_attention_gemm(name)) attention_us += us;
    } else {
      family_us[family_of(name)] += us;
      other_us += us;
    }
  }
  for (const char* f : kKernelFamilies) {
    m[std::string("kernels.") + f + ".ms"] = family_us[f] / 1e3;
    other_us -= family_us[f];
  }
  m["kernels.other.ms"] = other_us / 1e3;
  m["gemm.ms"] = gemm_us / 1e3;
  m["gemm.attention.ms"] = attention_us / 1e3;
  // flops per microsecond / 1e6 = TFLOP/s
  m["gemm.tflops"] = gemm_us > 0 ? gemm_flops / gemm_us / 1e6 : 0.0;
}

void add_memory_layers(core::Session& s, Metrics& m) {
  m["memory.permanent_mb"] = static_cast<double>(s.permanent_bytes()) / 1e6;
  m["memory.activation_peak_mb"] = static_cast<double>(s.activation_peak_bytes()) / 1e6;
  m["memory.arena_mb"] = static_cast<double>(s.config().arena_bytes) / 1e6;
}

double peak_mem_mb(core::Session& s) {
  return static_cast<double>(s.permanent_bytes() + s.activation_peak_bytes()) / 1e6;
}

/// End of a traced pass: the device timeline with the benchmark's host
/// spans as a separate trace process (host microseconds since the program
/// started, not device time), and the registry snapshot.
void write_trace(core::Session& session, const PassEnv& env) {
  if (!env.traced || env.trace_dir.empty()) return;
  constexpr int kHostPid = 1000;
  simgpu::Timeline& tl = session.device().timeline();
  tl.name_process(kHostPid, "ls2_bench host clock, us since start");
  for (const HostTrace::Span& s : env.host->spans)
    tl.record_span(kHostPid, 0, s.name, s.begin_us, s.end_us);
  std::filesystem::create_directories(env.trace_dir);
  const std::string base = env.trace_dir + "/" + env.workload;
  tl.write_chrome_trace(base + ".trace.json");
  obs::collect_device_metrics(*env.registry, session.device());
  std::ofstream(base + ".registry.json") << env.registry->to_json();
}

core::SessionConfig session_config(const simgpu::DeviceProfile& profile,
                                   simgpu::ExecMode mode, DType dtype,
                                   const PassEnv& env) {
  core::SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.profile = profile;
  sc.mode = mode;
  sc.dtype = dtype;
  sc.record_timeline = env.traced;
  sc.metrics = env.registry;
  return sc;
}

// ------------------------------------------------------------- training

/// Target tokens a batch trains, and the padded positions it occupies.
std::pair<double, double> batch_tokens(const models::MtBatch& b) {
  return {static_cast<double>(b.tokens), static_cast<double>(b.tgt_out.numel())};
}
std::pair<double, double> batch_tokens(const models::LmBatch& b) {
  const double n = static_cast<double>(b.targets.numel());
  return {n, n};
}

/// What a workload's measured train steps add up to.
struct TrainTally {
  std::vector<double> step_sim_us;
  double tokens = 0, padded = 0;  ///< over all data-parallel replicas
  core::StepTimes sum;
  int64_t replayed = 0;
  std::vector<float> losses;

  template <typename Model, typename Batch>
  void step(core::Session& session, Model& model, const Batch& batch,
            optim::Optimizer& trainer, const dist::ClusterConfig& cluster,
            const PassEnv& env, PassOut& out) {
    simgpu::Device& dev = session.device();
    const double sim0 = dev.clock_us();
    const double c0 = cpu_s();
    double step_s = 0;
    std::optional<std::pair<core::StepTimes, layers::CriterionResult>> r;
    {
      HostSpan span(env.host, "train_step", &step_s);
      r.emplace(core::train_step(session, model, batch, trainer, cluster));
    }
    out.host_step_ms.push_back(step_s * 1e3);
    out.host_cpu_ms.push_back((cpu_s() - c0) * 1e3);
    // The step's simulated time is its StepTimes total. Without pipeline
    // parallelism that is exactly the device-clock delta. The 1F1B engine
    // runs every stage's chunks back to back on the one simulated device
    // and reports rank 0's lane of the reconstructed schedule instead, so
    // there the device clock overstates the step (README finding d).
    const core::StepTimes& t = r->first;
    const double dt = dev.clock_us() - sim0;
    check(cluster.pipeline_parallel > 1 || near(t.total_us(), dt),
          "StepTimes stages sum " + std::to_string(t.total_us()) +
              " us != device clock delta " + std::to_string(dt) + " us");
    step_sim_us.push_back(t.total_us());
    const auto [real, slots] = batch_tokens(batch);
    tokens += real * cluster.dp_size();
    padded += slots * cluster.dp_size();
    sum.forward_us += t.forward_us;
    sum.backward_us += t.backward_us;
    sum.sync_us += t.sync_us;
    sum.update_us += t.update_us;
    sum.sync_overlapped_us += t.sync_overlapped_us;
    sum.update_overlapped_us += t.update_overlapped_us;
    sum.wire_bytes += t.wire_bytes;
    sum.tp_comm_us += t.tp_comm_us;
    sum.tp_exposed_us += t.tp_exposed_us;
    sum.pp_bubble_us += t.pp_bubble_us;
    sum.pp_exposed_us += t.pp_exposed_us;
    replayed += t.replayed ? 1 : 0;
    losses.push_back(r->second.loss_per_token());
    ++out.attempted;
  }

  void finish(core::Session& session, const optim::Optimizer& trainer, PassOut& out) const {
    double total_us = 0;
    for (double us : step_sim_us) total_us += us;
    out.sim["sim_tokens_per_s"] = tokens / (total_us * 1e-6);
    out.sim["sim_latency_p50_ms"] = median(step_sim_us) / 1e3;
    out.sim["sim_latency_tail_ms"] = pct(step_sim_us, 0.90) / 1e3;
    out.sim["peak_mem_mb"] = peak_mem_mb(session);
    Metrics& m = out.layers;
    m["core.forward_ms"] = sum.forward_us / 1e3;
    m["core.backward_ms"] = sum.backward_us / 1e3;
    m["core.sync_ms"] = sum.sync_us / 1e3;
    m["core.update_ms"] = sum.update_us / 1e3;
    m["optim.update_overlapped_ms"] = sum.update_overlapped_us / 1e3;
    m["optim.state_mb"] = static_cast<double>(trainer.state_bytes()) / 1e6;
    m["dist.wire_mb"] = static_cast<double>(sum.wire_bytes) / 1e6;
    const double enqueued = sum.sync_overlapped_us + sum.sync_us;
    m["dist.sync_hidden_ratio"] = enqueued > 0 ? sum.sync_overlapped_us / enqueued : 0.0;
    m["dist.tp_comm_ms"] = sum.tp_comm_us / 1e3;
    m["dist.tp_exposed_ms"] = sum.tp_exposed_us / 1e3;
    m["dist.pp_bubble_ms"] = sum.pp_bubble_us / 1e3;
    m["dist.pp_exposed_ms"] = sum.pp_exposed_us / 1e3;
    m["data.batches"] = static_cast<double>(step_sim_us.size());
    m["data.pad_ratio"] = tokens / padded;
    add_memory_layers(session, m);
  }
};

/// wmt_dp8: the paper's headline workload. Transformer-base 6e6d, FP16,
/// LightSeq2 trainer on 1x8 A100 data parallel (bucketed overlap and
/// pipelined update), model-only, eager, activation arena. A synthetic WMT
/// epoch of variable-shape token batches; one epoch runs during set-up, then
/// kEpochs are measured.
///
/// The arena is sized by core::capacity_scan over the kScanned batches with
/// the largest rows x length^2, not over data::largest_batch: that picks the
/// most padded tokens (128 x 32 on seed 1, 1888 MB) while the longest
/// sentences need the most (33 x 121, 2113 MB), so an arena sized from it
/// runs out of memory mid-epoch (README finding a).
class WmtDp8 final : public Workload {
 public:
  static constexpr int kEpochs = 3;
  static constexpr size_t kScanned = 2;

  explicit WmtDp8(uint64_t seed) : cfg_(models::TransformerConfig::base(6, 6)) {
    const data::MtDataset ds(cfg_.vocab, /*size=*/4000, /*min_len=*/4, /*max_len=*/120, seed);
    batches_ = data::make_mt_batches(ds, /*max_tokens=*/4096, DType::kF16,
                                     layers::policy_for(System::kLightSeq2).seq_multiple);
  }

  void run_pass(const PassEnv& env, PassOut& out) override {
    HostSpan setup(env.host, "setup", &out.setup_s);
    core::SessionConfig sc =
        session_config(simgpu::a100(), simgpu::ExecMode::kModelOnly, DType::kF16, env);
    {
      HostSpan span(env.host, "setup.capacity_scan");
      std::vector<const models::MtBatch*> longest;
      for (const models::MtBatch& b : batches_) longest.push_back(&b);
      const auto weight = [](const models::MtBatch* b) {
        const int64_t len = b->tgt_in.shape()[1];
        return b->tgt_in.shape()[0] * len * len;
      };
      std::sort(longest.begin(), longest.end(),
                [&](const auto* x, const auto* y) { return weight(x) > weight(y); });
      core::CapacityScanOptions opt;
      opt.profile = sc.profile;
      for (size_t i = 0; i < std::min(kScanned, longest.size()); ++i) {
        sc.arena_bytes = std::max(
            sc.arena_bytes,
            core::capacity_scan(
                [&](BufferAllocator* alloc) {
                  return std::make_unique<models::Transformer>(cfg_, System::kLightSeq2,
                                                               DType::kF16, 17, alloc);
                },
                *longest[i], opt));
      }
    }
    core::Session session(sc);
    std::optional<models::Transformer> model;
    std::unique_ptr<optim::Optimizer> trainer;
    {
      HostSpan span(env.host, "setup.model");
      model.emplace(cfg_, System::kLightSeq2, DType::kF16, 17, session.param_alloc());
      trainer = optim::make_trainer(System::kLightSeq2, model->params(), {},
                                    session.param_alloc());
    }
    {
      HostSpan span(env.host, "setup.warmup_epoch");
      for (const models::MtBatch& b : batches_)
        (void)core::train_step(session, *model, b, *trainer, cluster_);
    }
    setup.end();

    const DeviceSnapshot s0(session.device());
    HostSpan measure(env.host, "measure", &out.measure_s);
    TrainTally tally;
    for (int e = 0; e < kEpochs; ++e) {
      for (const models::MtBatch& b : batches_)
        tally.step(session, *model, b, *trainer, cluster_, env, out);
    }
    measure.end();
    tally.finish(session, *trainer, out);
    add_device_layers(session.device(), s0, out.layers);
    write_trace(session, env);
  }

 private:
  models::TransformerConfig cfg_;
  dist::ClusterConfig cluster_{8, 1};
  std::vector<models::MtBatch> batches_;
};

/// gpt_3d: GPT-2 (24 layers, 1024 hidden, vocab 50264), FP16, on 2 nodes x
/// 4 A100 at (dp, tp, pp) = (2, 2, 2) with 8 microbatches -- the only
/// workload on the 1F1B engine and the TP collectives. LM batches of 32 rows
/// whose length the seed draws per step from [448, 512].
class Gpt3d final : public Workload {
 public:
  static constexpr int kWarmup = 2, kSteps = 30;

  explicit Gpt3d(uint64_t seed) {
    cfg_.layers = 24;
    cfg_.hidden = 1024;
    cfg_.heads = 16;
    cfg_.ffn_dim = 4096;
    cfg_.vocab = 50264;  // Megatron padding of 50257 so TP=2 divides it
    cfg_.tp.size = 2;
    cfg_.tp.simulate_peers = false;
    cluster_.gpus_per_node = 4;
    cluster_.nodes = 2;
    cluster_.tensor_parallel = 2;
    cluster_.pipeline_parallel = 2;
    cluster_.microbatches = 8;
    const data::LmDataset lm(cfg_.vocab, /*tokens=*/1 << 18, seed);
    const Rng rng(seed);
    for (int i = 0; i < kWarmup + kSteps; ++i) {
      const int64_t len = 448 + rng.randint(7, static_cast<uint64_t>(i), 65);
      batches_.push_back(lm.batch(i, 32, len));
    }
  }

  void run_pass(const PassEnv& env, PassOut& out) override {
    HostSpan setup(env.host, "setup", &out.setup_s);
    dist::ProcessGroup pg(cluster_);
    core::Session session(
        session_config(simgpu::a100(), simgpu::ExecMode::kModelOnly, DType::kF16, env));
    session.ctx().tp_group = &pg;
    std::optional<models::Gpt2> model;
    std::unique_ptr<optim::Optimizer> trainer;
    {
      HostSpan span(env.host, "setup.model");
      model.emplace(cfg_, System::kLightSeq2, DType::kF16, 17, session.param_alloc());
      trainer = optim::make_trainer(System::kLightSeq2, model->params(), {},
                                    session.param_alloc());
    }
    setup.end();
    // The warm-up steps stay out of set-up time: a step on the cold caching
    // allocator costs 57-66 ms of host time against 8-10 ms warm, and the
    // two swung 96-166 ms across runs of one build.
    {
      HostSpan span(env.host, "warmup");
      for (int i = 0; i < kWarmup; ++i)
        (void)core::train_step(session, *model, batches_[static_cast<size_t>(i)], *trainer,
                               cluster_);
    }

    const DeviceSnapshot s0(session.device());
    HostSpan measure(env.host, "measure", &out.measure_s);
    TrainTally tally;
    for (size_t i = kWarmup; i < batches_.size(); ++i)
      tally.step(session, *model, batches_[i], *trainer, cluster_, env, out);
    measure.end();
    tally.finish(session, *trainer, out);
    add_device_layers(session.device(), s0, out.layers);
    write_trace(session, env);
  }

 private:
  models::Gpt2Config cfg_;
  dist::ClusterConfig cluster_;
  std::vector<models::LmBatch> batches_;
};

/// gpt2_exec: a small GPT-2 (2 layers, 256 hidden, vocab 512), FP32, one
/// A100, EXECUTE mode: every kernel body runs on the host. Arena sized by
/// core::capacity_scan; the train step is captured once and replayed. The
/// corpus is kCorpus LM batches trained for several epochs, so the loss
/// must fall within one pass. Graph replay needs one static shape, so the
/// seed draws it once per run: [4, L] with L in {62, 63, 64}.
class Gpt2Exec final : public Workload {
 public:
  static constexpr int kCorpus = 4, kSetupSteps = 2, kSteps = 14;

  explicit Gpt2Exec(uint64_t seed) {
    cfg_.layers = 2;
    cfg_.hidden = 256;
    cfg_.heads = 4;
    cfg_.ffn_dim = 1024;
    cfg_.vocab = 512;
    cfg_.max_len = 64;
    const int64_t len = 62 + Rng(seed).randint(7, 0, 3);
    const data::LmDataset lm(cfg_.vocab, /*tokens=*/1 << 14, seed);
    for (int i = 0; i < kCorpus; ++i) corpus_.push_back(lm.batch(i, 4, len));
  }

  void run_pass(const PassEnv& env, PassOut& out) override {
    HostSpan setup(env.host, "setup", &out.setup_s);
    core::SessionConfig sc =
        session_config(simgpu::a100(), simgpu::ExecMode::kExecute, DType::kF32, env);
    {
      HostSpan span(env.host, "setup.capacity_scan");
      core::CapacityScanOptions opt;
      opt.profile = sc.profile;
      sc.arena_bytes = core::capacity_scan(
          [&](BufferAllocator* alloc) {
            return std::make_unique<models::Gpt2>(cfg_, System::kLightSeq2, DType::kF32, 17,
                                                  alloc);
          },
          corpus_.front(), opt);
    }
    sc.graph_capture = true;
    core::Session session(sc);
    std::optional<models::Gpt2> model;
    std::unique_ptr<optim::Optimizer> trainer;
    {
      HostSpan span(env.host, "setup.model");
      model.emplace(cfg_, System::kLightSeq2, DType::kF32, 17, session.param_alloc());
      optim::OptimConfig ocfg;
      ocfg.lr = 1e-3f;
      trainer = optim::make_trainer(System::kLightSeq2, model->params(), ocfg,
                                    session.param_alloc());
    }
    std::vector<float> losses;
    {
      HostSpan span(env.host, "setup.warmup_and_capture");
      for (int i = 0; i < kSetupSteps; ++i) {
        auto [t, res] = core::train_step(session, *model, corpus_[i % kCorpus], *trainer);
        losses.push_back(res.loss_per_token());
      }
    }
    check(session.step_graph() != nullptr,
          "gpt2_exec: capture poisoned: " + session.graph_poison_reason());
    setup.end();

    const DeviceSnapshot s0(session.device());
    HostSpan measure(env.host, "measure", &out.measure_s);
    TrainTally tally;
    for (int i = kSetupSteps; i < kSetupSteps + kSteps; ++i)
      tally.step(session, *model, corpus_[i % kCorpus], *trainer, {}, env, out);
    measure.end();
    tally.finish(session, *trainer, out);
    add_device_layers(session.device(), s0, out.layers);

    check(!session.graph_poisoned(), "gpt2_exec: graph poisoned");
    check(tally.replayed == kSteps, "gpt2_exec: a post-capture step did not replay");
    losses.insert(losses.end(), tally.losses.begin(), tally.losses.end());
    // Mean loss over the first and the last epoch of the corpus.
    double first = 0, last = 0;
    bool finite = true;
    for (int i = 0; i < kCorpus; ++i) {
      first += losses[i] / kCorpus;
      last += losses[losses.size() - 1 - i] / kCorpus;
    }
    for (float l : losses) finite = finite && std::isfinite(l);
    check(finite, "gpt2_exec: non-finite loss");
    check(last < first, "gpt2_exec: loss did not fall (first epoch " + std::to_string(first) +
                            ", last epoch " + std::to_string(last) + ")");
    write_trace(session, env);
  }

 private:
  models::Gpt2Config cfg_;
  std::vector<models::LmBatch> corpus_;
};

// -------------------------------------------------------------- serving

struct ServeShape {
  int64_t max_len = 512;
  int64_t pool_pct = 100;  ///< page pool, percent of slots x pages_per_seq
  bool prefix_sharing = false;
  int64_t system_prompt = 0;  ///< shared leading tokens of every prompt
  int64_t prompt_lo = 8, prompt_hi = 32, gen_lo = 16, gen_hi = 64;
  double rate = 135;  ///< committed open-loop rate, requests/s
  /// Latency limits a request must meet to count toward infer.slo_ok_ratio.
  double ttft_limit_ms = 100, tpot_limit_ms = 5;
};

/// chat and rag: GPT-2 base, FP16, V100, 16 decode lanes over the paged KV
/// cache, decode step captured and replayed, model-only. Each pass serves
/// an open-loop Poisson stream of kRequests at the committed rate through
/// the stepwise engine API (the fixed-rate phase), then an offline batch of
/// kOffline requests all queued at once (the capacity measurement).
class Serve final : public Workload {
 public:
  static constexpr int64_t kSlots = 16, kRequests = 4000, kOffline = 1000, kWarmup = 16;

  Serve(ServeShape shape, uint64_t seed) : shape_(shape), mc_(models::Gpt2Config::base()) {
    requests_ = infer::poisson_requests(kRequests, shape_.rate, shape_.prompt_lo,
                                        shape_.prompt_hi, shape_.gen_lo, shape_.gen_hi,
                                        mc_.vocab, seed);
    if (shape_.system_prompt > 0) {
      const Rng rng(seed);
      std::vector<int32_t> sys;
      for (int64_t t = 0; t < shape_.system_prompt; ++t)
        sys.push_back(static_cast<int32_t>(
            3 + rng.randint(9, static_cast<uint64_t>(t), mc_.vocab - 3)));
      for (infer::Request& r : requests_) r.prompt.insert(r.prompt.begin(), sys.begin(), sys.end());
    }
  }

  void run_pass(const PassEnv& env, PassOut& out) override {
    HostSpan setup(env.host, "setup", &out.setup_s);
    core::SessionConfig sc =
        session_config(simgpu::v100(), simgpu::ExecMode::kModelOnly, DType::kF16, env);
    {
      HostSpan span(env.host, "setup.capacity_scan");
      // A preempted request re-admits with its tokens folded into the
      // prompt, so the longest prefill is prompt + generation.
      sc.arena_bytes = infer::serve_capacity_scan(
          mc_, DType::kF16, kSlots, shape_.max_len,
          shape_.system_prompt + shape_.prompt_hi + shape_.gen_hi);
    }
    sc.graph_capture = true;
    core::Session session(sc);
    std::optional<models::Gpt2> model;
    {
      HostSpan span(env.host, "setup.model");
      model.emplace(mc_, System::kLightSeq2, DType::kF16, 17, session.param_alloc());
    }
    infer::KvCacheConfig kcfg = model->kv_cache_config(kSlots, shape_.max_len);
    kcfg.total_pages = kcfg.slots * kcfg.pages_per_seq() * shape_.pool_pct / 100;
    kcfg.prefix_sharing = shape_.prefix_sharing;
    infer::KvCache cache(kcfg, session.param_alloc());
    infer::ContinuousBatcher engine(session, *model, cache, {});
    simgpu::Device& dev = session.device();
    {
      HostSpan span(env.host, "setup.warmup");
      (void)engine.serve(burst(kWarmup, dev.clock_us()));
    }
    check(session.step_graph() != nullptr,
          "serve: decode capture poisoned: " + session.graph_poison_reason());
    setup.end();

    // --- fixed-rate phase: open loop, stepwise, exactly as serve() drives it.
    const DeviceSnapshot s0(dev);
    HostSpan measure(env.host, "measure", &out.measure_s);
    std::vector<infer::Request> reqs = requests_;
    const double base_us = dev.clock_us();
    for (infer::Request& r : reqs) r.arrival_us += base_us;
    std::vector<double> feed_lag_us, decode_step_us;
    double occupancy = 0, live_pages = 0;
    const double page_capacity = static_cast<double>(kcfg.slots * kcfg.pages_per_seq());
    std::vector<infer::RequestStats> done;
    engine.begin();
    size_t next = 0;
    while (done.size() < reqs.size()) {
      const double now = dev.clock_us();
      while (next < reqs.size() && reqs[next].enqueue() <= now) {
        feed_lag_us.push_back(now - reqs[next].arrival_us);
        HostSpan span(env.host, "engine.submit");
        engine.submit(reqs[next++]);
      }
      const double decode0 = dev.range_time_us("serve.decode");
      double step_s = 0;
      bool decoded = false;
      {
        HostSpan span(env.host, "engine.step", &step_s);
        decoded = engine.step();
      }
      out.host_step_ms.push_back(step_s * 1e3);
      if (decoded) {
        decode_step_us.push_back(dev.range_time_us("serve.decode") - decode0);
        occupancy += static_cast<double>(engine.resident()) / kSlots;
        live_pages += static_cast<double>(cache.used_pages()) / page_capacity;
      }
      for (infer::RequestStats& st : engine.take_completed()) done.push_back(std::move(st));
      if (!decoded && !engine.has_work() && done.size() < reqs.size()) {
        check(next < reqs.size(), "serve: engine idle with requests unaccounted for");
        if (next >= reqs.size()) break;
        const double wait = reqs[next].enqueue() - dev.clock_us();
        if (wait > 0) dev.advance(wait, /*busy=*/false, "serve.idle");
      }
    }
    const infer::ServeReport report = engine.finish();
    measure.end();
    check_report(report, reqs, "fixed-rate", out);

    std::vector<double> latency, ttft, tpot, queue;
    int64_t slo_ok = 0;  // a shed or lost request misses the limits
    for (const infer::RequestStats& st : report.requests) {
      if (st.shed) continue;
      latency.push_back(st.latency_us());
      ttft.push_back(st.first_token_us - st.arrival_us);
      queue.push_back(st.queue_us());
      const double gap_us =
          st.generated > 1
              ? (st.done_us - st.first_token_us) / static_cast<double>(st.generated - 1)
              : 0.0;
      if (st.generated > 1) tpot.push_back(gap_us);
      slo_ok += ttft.back() <= shape_.ttft_limit_ms * 1e3 &&
                gap_us <= shape_.tpot_limit_ms * 1e3;
    }
    out.sim["sim_latency_p50_ms"] = median(latency) / 1e3;
    out.sim["sim_latency_tail_ms"] = pct(latency, 0.99) / 1e3;

    Metrics& m = out.layers;
    const double steps = static_cast<double>(std::max<size_t>(1, decode_step_us.size()));
    m["infer.sent"] = static_cast<double>(reqs.size());
    m["infer.served"] = static_cast<double>(report.served);
    m["infer.shed"] = static_cast<double>(report.shed_requests);
    m["infer.preemptions"] = static_cast<double>(report.preemptions);
    m["infer.decode_retries"] = static_cast<double>(report.decode_retries);
    m["infer.ttft_ms_p50"] = median(ttft) / 1e3;
    m["infer.ttft_ms_p99"] = pct(ttft, 0.99) / 1e3;
    m["infer.tpot_ms_p50"] = median(tpot) / 1e3;
    m["infer.tpot_ms_p99"] = pct(tpot, 0.99) / 1e3;
    m["infer.queue_ms_p50"] = median(queue) / 1e3;
    m["infer.queue_ms_p99"] = pct(queue, 0.99) / 1e3;
    m["infer.feed_lag_ms_p99"] = pct(feed_lag_us, 0.99) / 1e3;
    m["infer.slo_ok_ratio"] = static_cast<double>(slo_ok) / static_cast<double>(reqs.size());
    m["infer.prefill_ms"] = range_delta_us(dev, s0, "serve.prefill") / 1e3;
    m["infer.decode_ms"] = range_delta_us(dev, s0, "serve.decode") / 1e3;
    m["infer.idle_ms"] = range_delta_us(dev, s0, "serve.idle") / 1e3;
    m["infer.decode_steps"] = static_cast<double>(report.decode_steps);
    m["infer.replayed_steps"] = static_cast<double>(report.replayed_steps);
    m["infer.decode_step_ms_p50"] = median(decode_step_us) / 1e3;
    m["infer.lane_occupancy"] = occupancy / steps;
    m["infer.kv.live_page_ratio"] = live_pages / steps;
    const int64_t prompt_pages = report.shared_page_hits + report.prefill_page_allocs;
    m["infer.kv.prefix_hit_ratio"] = static_cast<double>(report.shared_page_hits) /
                                     static_cast<double>(std::max<int64_t>(1, prompt_pages));
    m["infer.kv.prefill_pages"] = static_cast<double>(report.prefill_page_allocs);
    m["infer.kv.peak_pages"] = static_cast<double>(report.peak_pages_used);
    add_device_layers(dev, s0, m);
    add_memory_layers(session, m);
    check(report.decode_steps > 0 && report.replayed_steps == report.decode_steps,
          "serve: a decode step did not replay");

    // --- offline capacity: the first kOffline requests all queued at once.
    {
      HostSpan span(env.host, "offline");
      const infer::ServeReport off = engine.serve(burst(kOffline, dev.clock_us()));
      check_report(off, std::vector<infer::Request>(requests_.begin(),
                                                    requests_.begin() + kOffline),
                   "offline", out);
      out.sim["sim_tokens_per_s"] = off.tokens_per_sec;
      // The fixed-rate phase runs below the pool's limit; evictions show up
      // when every lane is busy.
      m["infer.preemptions"] += static_cast<double>(off.preemptions);
    }
    out.sim["peak_mem_mb"] = peak_mem_mb(session);
    // The stepwise driver must reproduce serve() on the same requests. It
    // runs last so every measured phase starts at the same device clock in
    // every pass (the clock's absolute value perturbs float rounding). A
    // real divergence moves a latency by at least one kernel, so 1e-6
    // relative separates it from rounding.
    if (env.first) {
      HostSpan span(env.host, "parity.serve");
      std::vector<infer::Request> again = requests_;
      const double base2 = dev.clock_us();
      for (infer::Request& r : again) r.arrival_us += base2;
      const infer::ServeReport ref = engine.serve(again);
      check(ref.requests.size() == report.requests.size() &&
                ref.decode_steps == report.decode_steps &&
                ref.generated_tokens == report.generated_tokens &&
                ref.preemptions == report.preemptions,
            "serve: stepwise run differs from serve() in counts");
      std::map<int64_t, double> lat;
      for (const infer::RequestStats& st : report.requests) lat[st.id] = st.latency_us();
      bool same = true;
      for (const infer::RequestStats& st : ref.requests)
        same = same && lat.count(st.id) && near(lat[st.id], st.latency_us(), 1e-6);
      check(same, "serve: stepwise per-request latency differs from serve()");
    }

    write_trace(session, env);
  }

 private:
  /// The first `n` requests of the stream, all due at `t_us`.
  std::vector<infer::Request> burst(int64_t n, double t_us) const {
    std::vector<infer::Request> b(requests_.begin(), requests_.begin() + n);
    for (infer::Request& r : b) r.arrival_us = t_us;
    return b;
  }

  void check_report(const infer::ServeReport& rep, const std::vector<infer::Request>& sent,
                    const std::string& phase, PassOut& out) const {
    std::map<int64_t, int64_t> gen_len;
    for (const infer::Request& r : sent) gen_len[r.id] = r.spec.gen_len;
    int64_t answered = 0;
    bool lengths_ok = true;
    for (const infer::RequestStats& st : rep.requests) {
      if (st.cancelled) continue;
      ++answered;
      if (!st.shed)
        lengths_ok = lengths_ok && st.generated >= 1 && st.generated <= gen_len[st.id];
    }
    const int64_t n = static_cast<int64_t>(sent.size());
    const int64_t lost = n - answered;
    check(rep.served + rep.shed_requests == n && lost == 0,
          "serve " + phase + ": served + shed != sent or requests lost");
    check(lengths_ok, "serve " + phase + ": a request generated outside [1, gen_len]");
    out.attempted += n;
    out.failed += rep.shed_requests + rep.deadline_retired + lost;
  }

  ServeShape shape_;
  models::Gpt2Config mc_;
  std::vector<infer::Request> requests_;
};

// ------------------------------------------------------------ host probes

/// Host GFLOP/s of gemm::sgemm at gpt2_exec's FFN shape (256 tokens x 256 x
/// 1024): the CPU kernel under every execute-mode GEMM.
double gemm_probe(HostTrace* host) {
  HostSpan span(host, "probe.sgemm");
  const int64_t m = 256, n = 1024, k = 256;
  std::vector<float> a(static_cast<size_t>(m * k), 0.5f), b(static_cast<size_t>(k * n), 0.25f),
      c(static_cast<size_t>(m * n), 0.0f);
  std::vector<double> gflops;
  for (int i = 0; i < 15; ++i) {
    const double t0 = host_s();
    gemm::sgemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    gflops.push_back(2.0 * m * n * k / (host_s() - t0) / 1e9);
  }
  check(c[0] == 0.5f * 0.25f * k, "sgemm probe: wrong product");
  return median(gflops);
}

/// Host microseconds of one parallel_for over 8192 trivial items -- the
/// fork/join cost every execute-mode elementwise kernel pays.
double parallel_for_probe(HostTrace* host) {
  HostSpan span(host, "probe.parallel_for");
  std::vector<int32_t> out(8192, 0);
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const double t0 = host_s();
    parallel_for(0, 8192, [&](int64_t j) { out[static_cast<size_t>(j)] += 1; });
    us.push_back((host_s() - t0) * 1e6);
  }
  check(out[0] == 200 && out[8191] == 200, "parallel_for probe: wrong count");
  return median(us);
}

// -------------------------------------------------------------- workloads

struct WorkloadDef {
  const char* name;
  std::function<std::unique_ptr<Workload>(uint64_t)> make;
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"wmt_dp8", [](uint64_t s) { return std::make_unique<WmtDp8>(s); }},
      {"gpt_3d", [](uint64_t s) { return std::make_unique<Gpt3d>(s); }},
      {"gpt2_exec", [](uint64_t s) { return std::make_unique<Gpt2Exec>(s); }},
      {"chat",
       [](uint64_t s) {
         ServeShape chat;  // short prompts, decode-heavy, no memory pressure
         return std::make_unique<Serve>(chat, s);
       }},
      {"rag",
       [](uint64_t s) {
         ServeShape rag;  // one long shared prefix, short answers, tight pool
         rag.max_len = 384;
         rag.pool_pct = 20;
         rag.prefix_sharing = true;
         rag.system_prompt = 256;
         rag.prompt_lo = 16;
         rag.prompt_hi = 64;
         rag.gen_lo = 4;
         rag.gen_hi = 16;
         rag.rate = 170;
         rag.ttft_limit_ms = 50;
         return std::make_unique<Serve>(rag, s);
       }},
  };
  return defs;
}

// ------------------------------------------------------------------ main

constexpr size_t kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir, out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ls2_bench: %s\nusage: ls2_bench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR] [--out FILE]\nworkloads:",
               why.c_str());
  for (const WorkloadDef& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
        if (used != v.size()) usage("bad --seed " + v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
        if (used != v.size() || !(a.seconds > 0 && a.seconds <= 600)) usage("bad --seconds " + v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-dir") {
        a.trace_dir = v;
        a.trace = true;
      } else if (flag == "--out") {
        a.out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c == '\n' ? ' ' : c;
  }
  return o;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : workloads())
    if (args.workload == w.name) def = &w;
  if (!def) usage("unknown workload " + args.workload);
  std::unique_ptr<Workload> wl = def->make(args.seed);

  std::vector<PassOut> passes;
  const double start = host_s();
  while (passes.size() < kMinPasses || host_s() - start < args.seconds) {
    PassEnv env;
    env.first = passes.empty();
    passes.emplace_back();
    wl->run_pass(env, passes.back());
  }
  for (size_t p = 1; p < passes.size(); ++p) {
    check(passes[p].sim == passes[0].sim && passes[p].layers == passes[0].layers,
          "pass " + std::to_string(p) + " simulated results differ from pass 0");
  }

  std::vector<double> setup, step_ms, cpu_ms, measure;
  int64_t attempted = 0, failed = 0;
  for (const PassOut& p : passes) {
    setup.push_back(p.setup_s);
    measure.push_back(p.measure_s);
    step_ms.insert(step_ms.end(), p.host_step_ms.begin(), p.host_step_ms.end());
    cpu_ms.insert(cpu_ms.end(), p.host_cpu_ms.begin(), p.host_cpu_ms.end());
    attempted += p.attempted;
    failed += p.failed;
  }

  Metrics out;
  std::vector<MetricDef> defs;
  if (!args.trace) {
    out = passes[0].sim;
    out["setup_s"] = median(setup);
    defs = kEndToEnd;
  } else {
    // Host probes, then one traced pass: timeline, registry and host spans.
    HostTrace host;
    obs::MetricsRegistry registry;
    const double gflops = gemm_probe(&host);
    const double pf_us = parallel_for_probe(&host);
    PassEnv env;
    env.traced = true;
    env.registry = &registry;
    env.host = &host;
    env.trace_dir = args.trace_dir;
    env.workload = args.workload;
    PassOut traced;
    wl->run_pass(env, traced);
    check(traced.sim == passes[0].sim && traced.layers == passes[0].layers,
          "the traced pass's simulated results differ from the untraced passes");
    attempted += traced.attempted;
    failed += traced.failed;
    out = passes[0].layers;
    const bool training = !cpu_ms.empty();
    out[training ? "core.host_step_ms_p50" : "infer.host_step_ms_p50"] = median(step_ms);
    if (training) {
      out["core.host_step_ms_p90"] = pct(step_ms, 0.90);
      out["core.host_cpu_ms_per_step"] = median(cpu_ms);
    }
    out["gemm.host_gflops"] = gflops;
    out["common.parallel_for_us"] = pf_us;
    out["obs.trace_overhead_pct"] = 100.0 * (traced.measure_s / median(measure) - 1.0);
    defs = per_layer_defs();
  }

  // Nothing undeclared, every end-to-end metric measured, every value
  // finite; a per-layer metric the workload does not exercise reads 0.
  Metrics reported;
  for (const MetricDef& d : defs) {
    check(args.trace || out.count(d.name), "end-to-end metric " + d.name + " not measured");
    reported[d.name] = out.count(d.name) ? out[d.name] : 0.0;
    check(std::isfinite(reported[d.name]), "metric " + d.name + " is not finite");
  }
  for (const auto& [name, v] : out) check(reported.count(name), "undeclared metric " + name);

  const bool correct = g_failures.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  std::string metrics_json;
  for (const MetricDef& d : defs) {
    const double v = std::isfinite(reported[d.name]) ? reported[d.name] : 0.0;
    std::printf("%s %s %s %s\n", args.workload.c_str(), d.name.c_str(), fmt(v).c_str(),
                d.unit.c_str());
    metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" + d.name +
                    "\": {\"value\": " + fmt(v) + ", \"unit\": \"" + d.unit + "\"}";
  }
  json += metrics_json + "}}";
  std::printf("%s: %zu passes, %.1f s\n", args.workload.c_str(), passes.size(),
              host_s() - start);
  if (!args.trace_dir.empty())
    std::ofstream(args.trace_dir + "/" + args.workload + ".layers.json")
        << "{" << metrics_json << "}\n";
  if (!args.out.empty()) {
    std::ofstream f(args.out);
    std::string failures = "[";
    for (size_t i = 0; i < g_failures.size(); ++i)
      failures += (i ? ", \"" : "\"") + json_escape(g_failures[i]) + "\"";
    failures += "]";
    f << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"failures\": " << failures
      << ", \"result\": " << json << "}\n";
    check(f.good(), "cannot write " + args.out);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ls2_bench: FAILED: %s\n", e.what());
    return 1;
  }
}
