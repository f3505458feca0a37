// Session: one simulated device + its memory strategy + the policy of the
// system under test. The owning scope for everything a training run needs.
#pragma once

#include <memory>

#include "layers/layer_context.h"
#include "memory/arena_allocator.h"
#include "memory/caching_allocator.h"
#include "obs/metrics.h"
#include "simgpu/device.h"
#include "simgpu/profile.h"

namespace ls2::core {

struct SessionConfig {
  layers::System system = layers::System::kLightSeq2;
  simgpu::DeviceProfile profile = simgpu::v100();
  simgpu::ExecMode mode = simgpu::ExecMode::kExecute;
  DType dtype = DType::kF32;
  uint64_t seed = 42;
  /// >0 with kLightSeq2: pre-allocate this activation arena (from a capacity
  /// scan). 0: dynamic caching allocator (the baseline behaviour; LightSeq2
  /// sessions may also use 0 in tests where memory strategy is irrelevant).
  size_t arena_bytes = 0;
  bool record_timeline = false;
  /// Capture the steady-state train step as a device StepGraph and replay it
  /// (CUDA-Graphs discipline): after `graph_warmup_steps` eager steps the
  /// next step is captured-while-executing, and every later step replays the
  /// graph — one graph-launch overhead, no per-kernel launch gaps, bitwise
  /// identical numerics. Capture is poisoned (with a logged diagnostic, and
  /// the session stays eager) if the step is not capture-safe — e.g. the
  /// dynamic caching allocator stalls on a device malloc mid-step. Like
  /// real CUDA Graphs, replay requires STATIC batch shapes: feed the same
  /// (padded) shape every step — a shape change after capture makes the
  /// replayed launch sequence diverge from the graph, which throws with a
  /// diagnostic rather than mis-charging silently.
  bool graph_capture = false;
  /// Eager steps before capture (allocator warm-up; default: capture the
  /// second step).
  int graph_warmup_steps = 1;
  /// >0: take an asynchronous checkpoint snapshot every this many steps
  /// (DESIGN.md §10). The fault-tolerant harness (core/fault_tolerant.h)
  /// reads this cadence; a bare train_step loop ignores it. 0 = never.
  int64_t checkpoint_every = 0;
  /// Collective timeout for failure detection, threaded into the
  /// FaultInjector by the fault-tolerant harness (README knob).
  double collective_timeout_us = 5000.0;
  /// Wall-clock heartbeat detector cadence (dist::HeartbeatMonitor): how
  /// often the watcher thread scans for silent ranks. Consumers build the
  /// monitor via dist::HeartbeatConfig::from_millis(ranks, interval, timeout).
  double heartbeat_interval_ms = 2.0;
  /// A rank whose last beat is older than this is SUSPECTED. Keep it a
  /// multiple of the slowest healthy beat cadence — a slow-but-alive rank
  /// must never be evicted (tests/fleet_test.cc holds this).
  double heartbeat_timeout_ms = 20.0;
  /// Telemetry sink (DESIGN.md §12), NOT owned; null (the default) disables
  /// all metrics recording — every instrumentation site is one pointer test
  /// and the simulated step time is identical either way (host-side only).
  obs::MetricsRegistry* metrics = nullptr;
};

/// What core::train_step should do with the device graph on this step.
enum class GraphAction { kEager, kCapture, kReplay };

class Session {
 public:
  explicit Session(SessionConfig cfg);

  simgpu::Device& device() { return device_; }
  layers::LayerContext& ctx() { return *ctx_; }
  const SessionConfig& config() const { return cfg_; }

  /// The telemetry registry, or null when metrics are disabled. Defined
  /// with LS2_DISABLE_METRICS: always null, and the compiler deletes every
  /// `if (metrics())` instrumentation block — the compiled-out path.
#ifdef LS2_DISABLE_METRICS
  constexpr obs::MetricsRegistry* metrics() const { return nullptr; }
#else
  obs::MetricsRegistry* metrics() const { return cfg_.metrics; }
#endif

  /// Permanent memory (parameters, gradients, optimizer state).
  BufferAllocator* param_alloc() { return param_alloc_.get(); }
  /// Temporary memory (activations, backward scratch).
  mem::DeviceAllocator& activations() { return *act_alloc_; }

  int64_t permanent_bytes() const { return param_alloc_->bytes_in_use(); }
  int64_t activation_peak_bytes() const { return act_alloc_->peak_bytes(); }

  /// Called by train_step at the start of each step: advances the per-step
  /// RNG offset (the graph parameter that keeps dropout masks bitwise
  /// reproducible under replay) and decides whether this step runs eager,
  /// is captured, or replays the stored graph.
  GraphAction begin_step();

  /// Inference twin of begin_step for the serving engine (src/infer/): the
  /// steady-state DECODE step is the static region — prefills and
  /// admissions run eager in between, so the engine (not the step index)
  /// decides which steps are graph candidates by calling this only for
  /// them. Advances the per-step RNG offset (token sampling stays a pure
  /// function of (seed, step, slot) under replay) and returns eager /
  /// capture / replay for the decode region. Warm-up counts DECODE steps
  /// only; an engine step may also run admission prefills before the
  /// captured region — they stay outside the graph.
  GraphAction begin_decode_step();

  /// Called at the end of each training step: rewinds the arena (LightSeq2)
  /// so the next step reuses the same memory, and advances the step index.
  void end_step();

  // --- step-graph state (driven by core::train_step) ---
  /// Deposit the graph end_capture returned. An invalid (poisoned) graph
  /// logs a loud diagnostic and pins the session to eager execution.
  void store_graph(simgpu::StepGraph graph);
  /// The captured graph, or nullptr before capture / after poisoning.
  const simgpu::StepGraph* step_graph() const {
    return graph_.valid ? &graph_ : nullptr;
  }
  bool graph_poisoned() const { return graph_poisoned_; }
  const std::string& graph_poison_reason() const { return graph_.poison_reason; }
  /// Certified capture-safe memory strategy: the pre-reserved arena serves
  /// every per-step tensor from stable addresses with zero device
  /// malloc/free traffic (Table-1 feature row; the caching allocator is
  /// capture-unsafe and poisons at its first mid-step stall).
  bool graph_capture_supported() const { return act_alloc_->capture_safe(); }
  int64_t step_index() const { return step_index_; }

  /// Checkpoint-restore support (DESIGN.md §10): rewind the session's step
  /// index to `step` so the next begin_step re-derives that step's RNG
  /// offset — with the (seed, step, site) counter-RNG discipline this alone
  /// makes a replayed step draw bitwise the dropout masks and samples of
  /// the original. Also clears any abandoned capture/replay left by a
  /// mid-step failure and drains per-step state the unwound step leaked.
  void rewind_to_step(int64_t step);

  /// Cross-step state of train_step's pipeline lane (core/train_step.h,
  /// detail::PipelineStep): the remote-stage device/allocator pair and the
  /// trace time base. Owned here (type-erased) so the lane keeps its warm
  /// allocator cache across steps. Null until the first PP step.
  std::shared_ptr<void> pp_state;

 private:
  SessionConfig cfg_;
  simgpu::Device device_;
  std::unique_ptr<mem::DeviceAllocator> param_alloc_;
  std::unique_ptr<mem::DeviceAllocator> act_alloc_;
  mem::ArenaAllocator* arena_ = nullptr;  // non-null when arena strategy active
  std::unique_ptr<layers::LayerContext> ctx_;
  int64_t step_index_ = 0;
  int64_t decode_warmups_ = 0;    // eager decode steps before capture
  simgpu::StepGraph graph_;       // valid once captured (train OR decode —
                                  // a session runs one workload, not both)
  bool graph_poisoned_ = false;   // capture failed; stay eager forever
};

}  // namespace ls2::core
