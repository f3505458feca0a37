// Simulated GPU device: executes kernels on the host while advancing an
// analytical device clock.
//
// Two modes (see DESIGN.md §2):
//  * kExecute   — the kernel body runs for real (tests, examples, op benches);
//  * kModelOnly — only the cost model runs, so paper-scale configurations
//                 (24e24d, 15k batch tokens) can be swept in milliseconds.
//
// Every kernel launch declares what it touches (bytes read/written, flops,
// achieved efficiencies); the device charges
//     launch_overhead + max(bytes/BW_eff, flops/TP_eff)
// and attributes the time to the innermost active ScopedRange, which is how
// per-stage breakdowns (Fig. 3) and layer-wise timings (Fig. 19) fall out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "simgpu/profile.h"
#include "simgpu/timeline.h"

namespace ls2::simgpu {

class FaultInjector;
class CommLog;

/// A graph-discipline violation surfaced at runtime: replay divergence from
/// the captured step, device malloc/free or full-stream sync under replay,
/// or replaying a poisoned graph. Typed (rather than a bare ls2::Error) so
/// the recovery layer and bench mains can catch graph trouble specifically,
/// fall back to eager execution, and keep going instead of aborting.
class GraphError : public Error {
 public:
  explicit GraphError(const std::string& what) : Error(what) {}
};

enum class ExecMode {
  kExecute,    ///< run kernel bodies (real math) + cost model
  kModelOnly,  ///< cost model only; bodies skipped
};

/// Static description of one kernel launch, from which its simulated
/// duration is computed.
struct KernelDesc {
  std::string name;           ///< e.g. "ls2.layernorm_fw" / "torch.add"
  int64_t bytes_read = 0;     ///< global-memory bytes read
  int64_t bytes_written = 0;  ///< global-memory bytes written
  double flops = 0;           ///< floating point operations
  double mem_efficiency = 0.80;      ///< achieved fraction of peak bandwidth
  double compute_efficiency = 0.70;  ///< achieved fraction of peak FLOPs
  bool tensor_core = false;  ///< true => use fp16 tensor-core peak (GEMM)
};

struct KernelStats {
  int64_t launches = 0;
  int64_t bytes = 0;  ///< live bytes (a bounded launch counts what it moved)
  double flops = 0;   ///< live flops
  double time_us = 0;  ///< execution + launch gaps (what the family cost the clock)
  /// Pure execution time (no launch gaps / graph dispatch) — the roofline
  /// profiler's numerator: summed over families it equals the kernel share
  /// of DeviceStats::busy_us exactly, replayed or eager.
  double exec_us = 0;
  bool tensor_core = false;  ///< family ran on the tensor-core peak (GEMM)
};

struct DeviceStats {
  int64_t launches = 0;      ///< kernel executions (eager-launched or replayed)
  int64_t bytes_moved = 0;   ///< live bytes, like KernelStats
  double flops = 0;          ///< live flops
  double busy_us = 0;        ///< kernel execution time
  /// Total GPU-idle overhead. At least launch_gap_us + alloc_stall_us +
  /// graph_launch_us; `advance(us, busy=false, ...)` also lands here.
  double overhead_us = 0;
  double launch_gap_us = 0;   ///< per-kernel host-dispatch gaps (eager launches)
  double alloc_stall_us = 0;  ///< cudaMalloc/cudaFree/cached-alloc stalls
  double alloc_events = 0;   ///< number of device malloc/free calls
  int64_t comm_transfers = 0;   ///< transfers enqueued on the comm stream
  double comm_us = 0;           ///< total comm-stream busy time
  double exposed_comm_us = 0;   ///< comm time the compute stream waited on
  // --- step-graph replay (see StepGraph below) ---
  int64_t graph_replays = 0;       ///< begin_replay calls
  int64_t replayed_launches = 0;   ///< kernel executions issued via replay
  double graph_launch_us = 0;      ///< whole-graph dispatch overhead charged
};

/// One recorded operation of a captured step graph.
struct GraphNode {
  enum class Kind { kKernel, kCommEnqueue, kCommWait };
  Kind kind = Kind::kKernel;
  /// kKernel: validated against the replayed launch. For a bounded node this
  /// is the shape-static BOUND, not the cost any one launch charged.
  KernelDesc desc;
  /// kKernel: false = static node, whose replay charges the baked exec_us;
  /// true = bounded node, whose replay charges the launch's live cost.
  bool bounded = false;
  /// kKernel: execution time baked in at capture — what each replay of a
  /// static node charges (a replay runs the captured launch parameters, not
  /// fresh ones). For a bounded node, the time of the bound.
  double exec_us = 0;
  double comm_us = 0;  ///< kCommEnqueue: modeled transfer duration
};

/// An immutable recording of one steady-state step's device work, produced
/// by Device::begin_capture/end_capture and replayed with begin_replay:
/// the replay charges ONE graph-launch overhead plus the kernels'
/// back-to-back execution times — no per-launch gaps. Comm transfers and
/// stream-wait edges are recorded as graph nodes, but their *completion
/// times* are recomputed at each replay from the live comm clock (they are
/// replay-time parameters, which is what lets the pipelined per-bucket
/// update compose with replay).
struct StepGraph {
  std::vector<GraphNode> nodes;
  int64_t kernel_launches = 0;  ///< number of kKernel nodes
  /// Sum of their exec_us: for bounded nodes the bound's time, so this is
  /// the most one replay's kernels can charge, not what each one does.
  double kernel_exec_us = 0;
  bool valid = false;           ///< false until end_capture, or when poisoned
  std::string poison_reason;    ///< why capture failed (first offense)
};

class Device {
 public:
  explicit Device(DeviceProfile profile, ExecMode mode = ExecMode::kExecute);

  const DeviceProfile& profile() const { return profile_; }
  ExecMode mode() const { return mode_; }
  void set_mode(ExecMode m) { mode_ = m; }

  /// Launch one kernel: advances the clock by the modeled duration and (in
  /// execute mode) runs `body`. A STATIC launch: its cost is a function of
  /// shapes alone, the `live == bound` case of the bounded launch below.
  void launch(const KernelDesc& desc, const std::function<void()>& body);
  /// A BOUNDED launch, for a kernel that reads its extent from device
  /// memory (e.g. decode attention over per-lane lengths): `bound` is the
  /// shape-static worst case a capture records and a replay validates
  /// exactly; `live` is what this launch does, and what every launch —
  /// eager, captured or replayed — charges and records in the stats.
  /// `live` must carry the bound's name and not exceed it in bytes read,
  /// bytes written or flops (ls2::Error otherwise).
  void launch(const KernelDesc& bound, const KernelDesc& live,
              const std::function<void()>& body);

  /// Modeled duration of a kernel without launching it.
  double kernel_time_us(const KernelDesc& desc) const;

  // --- charge scaling (tensor parallelism) ---
  //
  // While a scale s is pushed, every launch's modeled bytes and flops are
  // multiplied by s before costing/recording — how TP layers charge their
  // row-wise kernels at 1/k shard size without duplicating call sites
  // (bandwidth-bound kernels scale linearly in bytes; GEMMs instead pass
  // explicit shard descriptors so their occupancy model sees real shard
  // shapes). The scaled descriptor is what a capture records, so replay
  // validation stays consistent as long as the regions are deterministic.
  void push_charge_scale(double s);
  void pop_charge_scale();
  double charge_scale() const { return charge_scale_; }

  /// Advance the clock without a kernel (allocator stalls, comm waits...).
  /// `busy` selects whether the span counts toward utilisation.
  void advance(double us, bool busy, const std::string& attribution);

  // --- Communication stream (overlapped data-parallel sync) ---
  //
  // The device models TWO streams: the compute stream (`clock_us`, which
  // every kernel launch advances) and a communication stream on which
  // gradient all-reduces run concurrently with compute. A transfer enqueued
  // at compute time t starts at max(t, previous transfer's end) — it can
  // overlap later compute but transfers serialize among themselves, like
  // NCCL calls on one comm stream.

  /// Enqueue `us` microseconds of communication; returns the transfer's
  /// modeled completion time. Does NOT advance the compute clock.
  double enqueue_comm(double us, const std::string& attribution);
  /// Block the compute stream until the comm stream drains (stream sync).
  /// The wait — comm time NOT hidden behind compute — is charged to
  /// `attribution` and returned ("exposed" synchronization time).
  double sync_comm(const std::string& attribution);
  /// Block the compute stream until the comm stream has reached `t_us` —
  /// a stream-wait-event on one transfer's completion rather than a full
  /// drain. Later transfers keep running; the wait (charged to
  /// `attribution`, counted as exposed comm) is returned. No-op when the
  /// compute clock is already past `t_us`.
  double wait_comm_until(double t_us, const std::string& attribution);
  double comm_clock_us() const { return comm_clock_us_; }

  // --- Step-graph capture & replay (CUDA-Graphs discipline) ---
  //
  // Capture is CONCURRENT with eager execution: between begin_capture and
  // end_capture every launch / comm enqueue / stream-wait is charged exactly
  // as usual AND recorded as a graph node, so the capture step stays
  // bitwise- and time-identical to an eager step. Capture is POISONED (the
  // returned graph is invalid, with a reason) by operations that are illegal
  // inside a real CUDA stream capture: device malloc/free (an allocator
  // stall means addresses are not stable — the arena never stalls, which is
  // what certifies it capture-safe) and full-stream syncs.
  //
  // Replay consumes the graph's nodes in order: begin_replay charges one
  // graph-launch overhead, each launch is validated against its node (name,
  // bytes, flops — a mismatch means the step is not actually static; for a
  // bounded node the check is on the bound) and charged only its execution
  // time, back to back: the baked time of a static node, the live cost of a
  // bounded one. A static launch consuming a bounded node, or the reverse,
  // is a GraphError. Kernel bodies still run in kExecute mode — replay
  // changes the cost model, never the numerics.

  void begin_capture();
  /// Finish capture; the result is valid unless capture was poisoned.
  StepGraph end_capture();
  /// Invalidate an in-progress capture (no-op otherwise). The remainder of
  /// the step keeps charging eagerly; end_capture returns the reason.
  void poison_capture(const std::string& reason);
  /// Start replaying `graph` (must outlive the replay and be valid).
  void begin_replay(const StepGraph& graph);
  /// Finish replay; checks every node was consumed.
  void end_replay();
  /// Abandon any capture/replay in progress without validation — for
  /// unwinding after an exception mid-step. Never throws.
  void abort_graph() noexcept;
  bool capturing() const { return graph_phase_ == GraphPhase::kCapture; }
  bool replaying() const { return graph_phase_ == GraphPhase::kReplay; }

  // --- Fault injection (src/simgpu/fault.h) ---
  //
  // With an injector installed, every launch consults it for latency spikes
  // and rank-0 device loss, comm transfers are stretched by the straggler
  // factor, and sync points double as failure-detection points. A null
  // injector (the default) costs one pointer test per hook — the fault-free
  // paths are otherwise untouched.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* fault_injector() const { return fault_; }
  /// Innermost active ScopedRange name ("" when none) — the site key for
  /// range-gated fault events (e.g. alloc failure inside "serve.decode").
  const std::string& current_range() const;
  /// Collective sync point: fires pending sync-scoped faults and, when a
  /// peer loss is armed, charges the detection timeout as idle wait
  /// ("fault.detect") and throws PeerLostError. sync_comm/wait_comm_until
  /// call this internally; a step path that never touches the comm stream
  /// (the blocking DP ring) calls it explicitly at its sync boundary.
  void at_sync_point(const std::string& attribution);

  /// Allocator hooks: charge allocation latency and record the watermark.
  void charge_alloc(bool cache_hit);
  void charge_free();
  void on_memory_change(int64_t bytes_in_use);

  double clock_us() const { return clock_us_; }
  const DeviceStats& stats() const { return stats_; }
  const std::map<std::string, KernelStats>& per_kernel() const { return per_kernel_; }

  /// Time attributed to a named range across all launches so far.
  double range_time_us(const std::string& range) const;
  const std::map<std::string, double>& range_times() const { return range_times_; }

  /// GPU utilisation so far: busy / (busy + idle overhead).
  double utilization() const;

  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  void set_record_timeline(bool on) { record_timeline_ = on; }
  bool record_timeline() const { return record_timeline_; }

  /// Drop a named instant marker at the current clock on the timeline
  /// (no-op unless the timeline is recording) — how fault/retry/hedge
  /// events become visible in the exported Chrome trace.
  void mark(const std::string& name) {
    if (record_timeline_) timeline_.record_instant(0, 0, name, clock_us_);
  }

  /// Reset clock/stats/timeline (memory watermark is kept by the allocator).
  void reset();

  // --- Scoped range API (see ScopedRange below) ---
  void push_range(const std::string& name);
  void pop_range();

 private:
  enum class GraphPhase { kNone, kCapture, kReplay };

  void attribute(double us);
  friend class CommLog;
  /// The one launch path behind both launch overloads (bounded = false:
  /// `live` is `bound`).
  void launch_kernel(const KernelDesc& bound, const KernelDesc& live, bool bounded,
                     const std::function<void()>& body);
  /// Replay-side node matching: checks the next node has `kind` (and, for
  /// kernels, the same static/bounded kind and an equal descriptor) and
  /// advances the cursor.
  const GraphNode& consume_node(GraphNode::Kind kind, const KernelDesc* desc,
                                bool bounded = false);

  DeviceProfile profile_;
  ExecMode mode_;
  double clock_us_ = 0;
  double comm_clock_us_ = 0;  ///< completion time of the last comm transfer
  GraphPhase graph_phase_ = GraphPhase::kNone;
  StepGraph capture_;                  ///< graph being built (kCapture)
  bool capture_poisoned_ = false;
  const StepGraph* replay_ = nullptr;  ///< graph being consumed (kReplay)
  size_t replay_cursor_ = 0;
  double charge_scale_ = 1.0;
  std::vector<double> charge_scale_stack_;
  DeviceStats stats_;
  std::map<std::string, KernelStats> per_kernel_;
  std::map<std::string, double> range_times_;
  std::vector<std::string> range_stack_;
  Timeline timeline_;
  bool record_timeline_ = false;
  FaultInjector* fault_ = nullptr;  ///< not owned; null = fault-free
  CommLog* comm_log_ = nullptr;     ///< the live CommLog, or null
};

/// RAII recorder of the comm stream: while alive, every transfer the device
/// enqueues and every stream wait it charges appends one Op, in issue order.
/// The gradient bucket planner (dist/bucket.h) measures a step's comm
/// traffic with it. One log per device at a time.
class CommLog {
 public:
  struct Op {
    bool wait = false;
    double at_us = 0;     ///< compute clock when issued
    double us = 0;        ///< transfer: clean duration (before a straggler stretch)
    double done_us = 0;   ///< transfer: completion; wait: the awaited time
    double stall_us = 0;  ///< wait: compute time spent waiting
  };

  explicit CommLog(Device& device) : device_(device) {
    LS2_CHECK(device_.comm_log_ == nullptr) << "the device already has a CommLog";
    device_.comm_log_ = this;
  }
  ~CommLog() { device_.comm_log_ = nullptr; }
  CommLog(const CommLog&) = delete;
  CommLog& operator=(const CommLog&) = delete;

  const std::vector<Op>& ops() const { return ops_; }

 private:
  friend class Device;
  Device& device_;
  std::vector<Op> ops_;
};

/// RAII stage marker: time advanced while alive is attributed to `name`
/// (innermost wins). Mirrors nvtx ranges.
class ScopedRange {
 public:
  ScopedRange(Device& device, std::string name) : device_(device) {
    device_.push_range(std::move(name));
  }
  ~ScopedRange() { device_.pop_range(); }
  ScopedRange(const ScopedRange&) = delete;
  ScopedRange& operator=(const ScopedRange&) = delete;

 private:
  Device& device_;
};

}  // namespace ls2::simgpu
