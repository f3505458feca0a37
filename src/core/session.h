// Session: one simulated device + its memory strategy + the policy of the
// system under test. The owning scope for everything a training run needs.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "dist/bucket.h"
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
  /// diagnostic rather than mis-charging silently. The serving engine pads
  /// its steps to a few fixed shapes instead and captures one graph per
  /// shape at start-up (Session's graph pool).
  bool graph_capture = false;
  /// Eager steps before a step's capture (allocator warm-up; default:
  /// capture the second step). The serving engine's start-up captures run
  /// at a step index past it, then restore the index.
  int graph_warmup_steps = 1;
  /// >0: take an asynchronous checkpoint snapshot every this many steps
  /// (DESIGN.md §10). The fault-tolerant harness (core/fault_tolerant.h)
  /// reads this cadence; a bare train_step loop ignores it. 0 = never.
  int64_t checkpoint_every = 0;
  /// Collective timeout for failure detection, threaded into the
  /// FaultInjector by the fault-tolerant harness (README knob).
  double collective_timeout_us = 5000.0;
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

  /// The telemetry registry, or null when metrics are disabled.
  obs::MetricsRegistry* metrics() const { return cfg_.metrics; }
  /// Attach a telemetry sink, or detach it with null, between training
  /// steps: the next step records into `m`.
  void set_metrics(obs::MetricsRegistry* m) { cfg_.metrics = m; }

  /// Permanent memory (parameters, gradients, optimizer state).
  BufferAllocator* param_alloc() { return param_alloc_.get(); }
  /// Temporary memory (activations, backward scratch).
  mem::DeviceAllocator& activations() { return *act_alloc_; }

  int64_t permanent_bytes() const { return param_alloc_->bytes_in_use(); }
  int64_t activation_peak_bytes() const { return act_alloc_->peak_bytes(); }

  /// Called at the start of each step — a train step, or one serving
  /// engine step (src/infer/): advances the per-step RNG offset (the graph
  /// parameter that keeps dropout masks and sampled tokens bitwise
  /// reproducible under replay) and decides whether this step runs eager,
  /// is captured, or replays the graph stored for its `shape`. The session
  /// keeps one graph per shape (the GRAPH POOL): a train step has the one
  /// shape 0, the serving engine one per packed-batch capacity. The first
  /// `graph_warmup_steps` steps (by step index) run eager.
  GraphAction begin_step(int64_t shape = 0);

  /// Called at the end of each step: rewinds the arena (LightSeq2) so the
  /// next step reuses the same memory, and advances the step index.
  void end_step();

  // --- step-graph state (driven by GraphRegion) ---
  /// Deposit the graph end_capture returned for `shape`. An invalid
  /// (poisoned) graph logs a loud diagnostic and pins the session to eager
  /// execution, every shape included.
  void store_graph(simgpu::StepGraph graph, int64_t shape = 0);
  /// `shape`'s captured graph, or nullptr before its capture / after
  /// poisoning.
  const simgpu::StepGraph* step_graph(int64_t shape = 0) const;
  bool graph_poisoned() const { return graph_poisoned_; }
  const std::string& graph_poison_reason() const { return poison_reason_; }
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

  /// Cross-step state of train_step's gradient bucket planner: the latest
  /// eager step's measurement of each DP lane and the plans a step-graph
  /// capture froze (detail::plan_step_buckets).
  dist::BucketMemo bucket_memo;

 private:
  SessionConfig cfg_;
  simgpu::Device device_;
  std::unique_ptr<mem::DeviceAllocator> param_alloc_;
  std::unique_ptr<mem::DeviceAllocator> act_alloc_;
  mem::ArenaAllocator* arena_ = nullptr;  // non-null when arena strategy active
  std::unique_ptr<layers::LayerContext> ctx_;
  int64_t step_index_ = 0;
  /// The graph pool: one captured graph per step shape (train OR serve — a
  /// session runs one workload, not both).
  std::map<int64_t, simgpu::StepGraph> graphs_;
  bool graph_poisoned_ = false;   // capture failed; stay eager forever
  std::string poison_reason_;
};

/// The static region of one step, captured into or replayed from the
/// session's graph for `shape` (RAII): the constructor begins the capture
/// or replay `action` names on the session's device (nothing when eager),
/// and close() ends it — depositing the captured graph, or its poison
/// diagnostic, with the session, or finishing the replay. A region still
/// open when it goes out of scope (the step unwound, e.g. on OOM) is
/// abandoned with Device::abort_graph. core::train_step and the serving
/// engine's step each run their static region inside one.
class GraphRegion {
 public:
  GraphRegion(Session& session, GraphAction action, int64_t shape = 0);
  ~GraphRegion();
  GraphRegion(const GraphRegion&) = delete;
  GraphRegion& operator=(const GraphRegion&) = delete;

  /// End the region. It counts as closed only once this returns:
  /// end_replay throws on a node-count mismatch, and the destructor must
  /// then still abandon the replay rather than leave the device mid-graph.
  void close();

 private:
  Session& session_;
  GraphAction action_;
  int64_t shape_;
  bool open_ = false;
};

}  // namespace ls2::core
