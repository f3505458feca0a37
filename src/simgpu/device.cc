#include "simgpu/device.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "simgpu/fault.h"

namespace ls2::simgpu {

Device::Device(DeviceProfile profile, ExecMode mode)
    : profile_(std::move(profile)), mode_(mode) {}

double Device::kernel_time_us(const KernelDesc& desc) const {
  const double bytes = static_cast<double>(desc.bytes_read + desc.bytes_written);
  // GB/s == bytes/ns, so us = bytes / (BW * 1e3).
  const double mem_us = bytes / (profile_.mem_bw_gb_s * desc.mem_efficiency * 1e3);
  const double peak_tflops = desc.tensor_core ? profile_.fp16_tflops : profile_.fp32_tflops;
  const double compute_us = desc.flops / (peak_tflops * desc.compute_efficiency * 1e6);
  return std::max(mem_us, compute_us);
}

void Device::push_charge_scale(double s) {
  LS2_CHECK(s > 0 && s <= 1.0) << "charge scale " << s;
  charge_scale_stack_.push_back(charge_scale_);
  charge_scale_ *= s;
}

void Device::pop_charge_scale() {
  LS2_CHECK(!charge_scale_stack_.empty()) << "pop_charge_scale with empty stack";
  charge_scale_ = charge_scale_stack_.back();
  charge_scale_stack_.pop_back();
}

namespace {

/// `d` as charged under the TP charge scale `s`: `d` itself at s == 1,
/// otherwise a copy in `scratch` with bytes and flops scaled.
const KernelDesc& scale_desc(const KernelDesc& d, double s, KernelDesc& scratch) {
  if (s == 1.0) return d;
  scratch = d;
  scratch.bytes_read = static_cast<int64_t>(static_cast<double>(d.bytes_read) * s);
  scratch.bytes_written = static_cast<int64_t>(static_cast<double>(d.bytes_written) * s);
  scratch.flops = d.flops * s;
  return scratch;
}

}  // namespace

void Device::launch(const KernelDesc& desc, const std::function<void()>& body) {
  launch_kernel(desc, desc, /*bounded=*/false, body);
}

void Device::launch(const KernelDesc& bound, const KernelDesc& live,
                    const std::function<void()>& body) {
  launch_kernel(bound, live, /*bounded=*/true, body);
}

void Device::launch_kernel(const KernelDesc& bound_desc, const KernelDesc& live_desc,
                           bool bounded, const std::function<void()>& body) {
  KernelDesc bound_scaled, live_scaled;
  const KernelDesc& bound = scale_desc(bound_desc, charge_scale_, bound_scaled);
  const KernelDesc& desc =
      bounded ? scale_desc(live_desc, charge_scale_, live_scaled) : bound;
  LS2_CHECK(desc.mem_efficiency > 0 && desc.mem_efficiency <= 1.0)
      << desc.name << " mem_efficiency " << desc.mem_efficiency;
  LS2_CHECK(desc.compute_efficiency > 0 && desc.compute_efficiency <= 1.0)
      << desc.name << " compute_efficiency " << desc.compute_efficiency;
  if (bounded) {
    LS2_CHECK(desc.name == bound.name)
        << "live launch '" << desc.name << "' under bound '" << bound.name << "'";
    LS2_CHECK(desc.bytes_read <= bound.bytes_read &&
              desc.bytes_written <= bound.bytes_written && desc.flops <= bound.flops)
        << desc.name << ": live cost (" << desc.bytes_read << " B read, "
        << desc.bytes_written << " B written, " << desc.flops
        << " flops) exceeds its bound (" << bound.bytes_read << ", "
        << bound.bytes_written << ", " << bound.flops << ")";
  }

  stats_.launches += 1;
  stats_.bytes_moved += desc.bytes_read + desc.bytes_written;
  stats_.flops += desc.flops;

  KernelStats& ks = per_kernel_[desc.name];
  ks.launches += 1;
  ks.bytes += desc.bytes_read + desc.bytes_written;
  ks.flops += desc.flops;

  if (graph_phase_ == GraphPhase::kReplay) {
    // Replayed kernels run back to back: the graph was dispatched as one
    // unit (charged in begin_replay), so there is no per-launch gap. A
    // static node charges the execution time BAKED INTO it at capture — a
    // replay runs the captured launch parameters, not freshly-derived ones.
    // A bounded node's kernel reads its extent from replay-time parameters,
    // so it charges the live cost (already checked against the bound).
    // Faults still apply: replay fixes the launch sequence, not the silicon.
    const GraphNode& node = consume_node(GraphNode::Kind::kKernel, &bound, bounded);
    double exec = bounded ? kernel_time_us(desc) : node.exec_us;
    if (fault_ != nullptr) exec *= fault_->on_kernel(desc.name);
    stats_.replayed_launches += 1;
    stats_.busy_us += exec;
    ks.time_us += exec;
    ks.exec_us += exec;
    ks.tensor_core = desc.tensor_core;
    const double busy_begin = clock_us_;
    clock_us_ += exec;
    if (record_timeline_) timeline_.record_busy(busy_begin, clock_us_);
    attribute(exec);
  } else {
    // The spike multiplier is charged live but the CAPTURE records the clean
    // execution time: a transient stall on the capture step must not get
    // baked into every future replay.
    const double base_exec = kernel_time_us(desc);
    const double exec =
        fault_ != nullptr ? base_exec * fault_->on_kernel(desc.name) : base_exec;
    stats_.busy_us += exec;
    // Launch gap: the GPU is idle while the host dispatches the kernel.
    const double overhead = profile_.launch_overhead_us;
    stats_.overhead_us += overhead;
    stats_.launch_gap_us += overhead;
    ks.time_us += overhead + exec;
    ks.exec_us += exec;
    ks.tensor_core = desc.tensor_core;
    clock_us_ += overhead;
    const double busy_begin = clock_us_;
    clock_us_ += exec;
    if (record_timeline_) timeline_.record_busy(busy_begin, clock_us_);
    attribute(overhead + exec);
    if (graph_phase_ == GraphPhase::kCapture) {
      GraphNode node;
      node.kind = GraphNode::Kind::kKernel;
      node.desc = bound;
      node.bounded = bounded;
      node.exec_us = bounded ? kernel_time_us(bound) : base_exec;
      capture_.kernel_launches += 1;
      capture_.kernel_exec_us += node.exec_us;
      capture_.nodes.push_back(std::move(node));
    }
  }

  if (mode_ == ExecMode::kExecute && body) body();
}

void Device::advance(double us, bool busy, const std::string& attribution) {
  if (us <= 0) return;
  if (busy) {
    const double begin = clock_us_;
    stats_.busy_us += us;
    clock_us_ += us;
    if (record_timeline_) timeline_.record_busy(begin, clock_us_);
  } else {
    stats_.overhead_us += us;
    clock_us_ += us;
  }
  if (!attribution.empty()) {
    range_times_[attribution] += us;
  } else {
    attribute(us);
  }
}

double Device::enqueue_comm(double us, const std::string& attribution) {
  LS2_CHECK(us >= 0) << "negative comm time";
  if (us == 0) return std::max(comm_clock_us_, clock_us_);
  if (graph_phase_ == GraphPhase::kCapture) {
    GraphNode node;
    node.kind = GraphNode::Kind::kCommEnqueue;
    node.comm_us = us;
    capture_.nodes.push_back(std::move(node));
  } else if (graph_phase_ == GraphPhase::kReplay) {
    // The transfer is a graph node, but its begin/completion times are
    // recomputed below from the live clocks (replay-time parameters).
    const GraphNode& node = consume_node(GraphNode::Kind::kCommEnqueue, nullptr);
    if (node.comm_us != us)
      throw GraphError("replayed comm transfer duration " + std::to_string(us) +
                       " us != captured " + std::to_string(node.comm_us) +
                       " us — gradient payload changed under replay");
  }
  // A degraded link stretches the transfer ON THE WIRE: the graph node keeps
  // (and replay validates) the clean payload duration — the link, not the
  // payload, is what changed — while the clocks charge the stretched time.
  const double wire_us = fault_ != nullptr ? us * fault_->comm_factor() : us;
  // The transfer starts once its payload exists (now, on the compute clock)
  // and the comm stream is free; transfers serialize among themselves.
  const double begin = std::max(comm_clock_us_, clock_us_);
  comm_clock_us_ = begin + wire_us;
  stats_.comm_transfers += 1;
  stats_.comm_us += wire_us;
  if (comm_log_ != nullptr) comm_log_->ops_.push_back({false, clock_us_, us, comm_clock_us_, 0});
  if (record_timeline_) timeline_.record_comm(begin, comm_clock_us_);
  // Overlapped time is deliberately NOT attributed to the active compute
  // range; only the exposed wait (sync_comm) lands in a range.
  (void)attribution;
  return comm_clock_us_;
}

double Device::sync_comm(const std::string& attribution) {
  at_sync_point(attribution);
  if (graph_phase_ == GraphPhase::kCapture) {
    // cudaStreamSynchronize is illegal inside a stream capture.
    poison_capture("full comm-stream sync during capture (" + attribution + ")");
  }
  // A valid graph can never contain a sync (it would have poisoned its own
  // capture), so a sync inside a replay is a divergence from the captured
  // step — reject it like every other graph-illegal operation.
  if (graph_phase_ == GraphPhase::kReplay)
    throw GraphError("full comm-stream sync during graph replay (" + attribution +
                     ") — the replayed step diverged from the capture");
  const double exposed = std::max(0.0, comm_clock_us_ - clock_us_);
  if (exposed > 0) {
    // The compute stream stalls while the fabric finishes: idle SMs, busy
    // links. Counted as busy so utilisation matches the blocking path.
    advance(exposed, /*busy=*/true, attribution);
    stats_.exposed_comm_us += exposed;
  }
  if (fault_ != nullptr) fault_->note_exposed_wait(exposed);
  return exposed;
}

double Device::wait_comm_until(double t_us, const std::string& attribution) {
  at_sync_point(attribution);
  if (graph_phase_ == GraphPhase::kCapture) {
    GraphNode node;
    node.kind = GraphNode::Kind::kCommWait;
    capture_.nodes.push_back(std::move(node));
  } else if (graph_phase_ == GraphPhase::kReplay) {
    // A stream-wait edge: the edge is part of the graph, the timestamp it
    // resolves to is not — the exposed wait is recomputed every replay.
    (void)consume_node(GraphNode::Kind::kCommWait, nullptr);
  }
  // A transfer's completion time can never exceed the comm clock; waiting
  // past it would be waiting on nothing.
  const double target = std::min(t_us, comm_clock_us_);
  const double exposed = std::max(0.0, target - clock_us_);
  if (comm_log_ != nullptr) comm_log_->ops_.push_back({true, clock_us_, 0, t_us, exposed});
  if (exposed > 0) {
    advance(exposed, /*busy=*/true, attribution);
    stats_.exposed_comm_us += exposed;
  }
  if (fault_ != nullptr) fault_->note_exposed_wait(exposed);
  return exposed;
}

void Device::at_sync_point(const std::string& attribution) {
  if (fault_ == nullptr) return;
  fault_->fire_sync_faults();
  if (const FaultEvent* e = fault_->take_peer_loss()) {
    // Detection is never free and never early: the collective blocks for its
    // full timeout before the stack can conclude the peer is gone (NCCL
    // watchdog semantics), and that stall is charged on the timeline.
    advance(fault_->collective_timeout_us(), /*busy=*/false, "fault.detect");
    throw PeerLostError("simgpu: peer rank " + std::to_string(e->rank) +
                            " lost — collective timed out after " +
                            std::to_string(fault_->collective_timeout_us()) +
                            " us at '" + attribution + "'",
                        e->rank);
  }
}

const std::string& Device::current_range() const {
  static const std::string kNoRange;
  return range_stack_.empty() ? kNoRange : range_stack_.back();
}

void Device::charge_alloc(bool cache_hit) {
  stats_.alloc_events += 1;
  if (graph_phase_ == GraphPhase::kReplay) {
    // A replayed graph has its addresses baked in: a cache-hit is pure host
    // bookkeeping (free — the device never sees it), and an actual device
    // malloc means the address set changed under the graph.
    if (!cache_hit)
      throw GraphError(
          "device malloc during graph replay — the captured step is not "
          "address-stable; capture is only safe over a pre-reserved arena");
    return;
  }
  if (graph_phase_ == GraphPhase::kCapture && !cache_hit) {
    // cudaMalloc inside a stream capture is illegal — this is the allocator
    // stall that makes the dynamic caching allocator capture-unsafe.
    poison_capture("allocator stall (device malloc) during capture");
  }
  const double us = cache_hit ? profile_.cached_alloc_us : profile_.malloc_us;
  stats_.overhead_us += us;
  stats_.alloc_stall_us += us;
  clock_us_ += us;
  attribute(us);
}

void Device::charge_free() {
  stats_.alloc_events += 1;
  if (graph_phase_ == GraphPhase::kReplay) {
    throw GraphError(
        "device free during graph replay — the captured step is not "
        "address-stable");
  }
  if (graph_phase_ == GraphPhase::kCapture) {
    poison_capture("allocator stall (device free) during capture");
  }
  const double us = profile_.free_us;
  stats_.overhead_us += us;
  stats_.alloc_stall_us += us;
  clock_us_ += us;
  attribute(us);
}

void Device::on_memory_change(int64_t bytes_in_use) {
  if (record_timeline_) timeline_.record_memory(clock_us_, bytes_in_use);
}

void Device::begin_capture() {
  LS2_CHECK(graph_phase_ == GraphPhase::kNone)
      << "begin_capture while a capture or replay is in progress";
  capture_ = StepGraph{};
  capture_poisoned_ = false;
  graph_phase_ = GraphPhase::kCapture;
}

StepGraph Device::end_capture() {
  LS2_CHECK(graph_phase_ == GraphPhase::kCapture) << "end_capture without capture";
  graph_phase_ = GraphPhase::kNone;
  capture_.valid = !capture_poisoned_;
  return std::move(capture_);
}

void Device::poison_capture(const std::string& reason) {
  if (graph_phase_ != GraphPhase::kCapture || capture_poisoned_) return;
  capture_poisoned_ = true;
  capture_.poison_reason = reason;
}

void Device::begin_replay(const StepGraph& graph) {
  LS2_CHECK(graph_phase_ == GraphPhase::kNone)
      << "begin_replay while a capture or replay is in progress";
  if (!graph.valid)
    throw GraphError("begin_replay on an invalid (poisoned) graph: " +
                     graph.poison_reason);
  graph_phase_ = GraphPhase::kReplay;
  replay_ = &graph;
  replay_cursor_ = 0;
  // One dispatch for the whole step, instead of one per kernel.
  const double overhead = profile_.graph_launch_overhead_us;
  stats_.graph_replays += 1;
  stats_.graph_launch_us += overhead;
  stats_.overhead_us += overhead;
  clock_us_ += overhead;
  attribute(overhead);
}

void Device::end_replay() {
  LS2_CHECK(graph_phase_ == GraphPhase::kReplay) << "end_replay without replay";
  if (replay_cursor_ != replay_->nodes.size())
    throw GraphError("replay consumed " + std::to_string(replay_cursor_) +
                     " of " + std::to_string(replay_->nodes.size()) +
                     " graph nodes — the replayed step diverged from the capture");
  graph_phase_ = GraphPhase::kNone;
  replay_ = nullptr;
  replay_cursor_ = 0;
}

void Device::abort_graph() noexcept {
  graph_phase_ = GraphPhase::kNone;
  replay_ = nullptr;
  replay_cursor_ = 0;
  capture_ = StepGraph{};
  capture_poisoned_ = false;
}

const GraphNode& Device::consume_node(GraphNode::Kind kind, const KernelDesc* desc,
                                      bool bounded) {
  if (replay_cursor_ >= replay_->nodes.size())
    throw GraphError("replayed step issued more operations than the captured graph (" +
                     std::to_string(replay_->nodes.size()) + " nodes)");
  const GraphNode& node = replay_->nodes[replay_cursor_++];
  if (node.kind != kind)
    throw GraphError("graph node " + std::to_string(replay_cursor_ - 1) +
                     " kind mismatch under replay");
  if (desc != nullptr) {
    if (node.bounded != bounded)
      throw GraphError("graph node " + std::to_string(replay_cursor_ - 1) + " ('" +
                       node.desc.name + "') was captured " +
                       (node.bounded ? "bounded" : "static") + " but replayed " +
                       (bounded ? "bounded" : "static"));
    if (!(node.desc.name == desc->name &&
          node.desc.bytes_read == desc->bytes_read &&
          node.desc.bytes_written == desc->bytes_written &&
          node.desc.flops == desc->flops))
      throw GraphError("graph node " + std::to_string(replay_cursor_ - 1) + " ('" +
                       node.desc.name + "') does not match replayed launch '" +
                       desc->name +
                       "' — the step is not static (did the batch shape "
                       "change?); graph capture requires fixed shapes, like "
                       "real CUDA Graphs");
  }
  return node;
}

double Device::range_time_us(const std::string& range) const {
  auto it = range_times_.find(range);
  return it == range_times_.end() ? 0.0 : it->second;
}

double Device::utilization() const {
  const double total = stats_.busy_us + stats_.overhead_us;
  return total <= 0 ? 1.0 : stats_.busy_us / total;
}

void Device::reset() {
  clock_us_ = 0;
  comm_clock_us_ = 0;
  charge_scale_ = 1.0;
  charge_scale_stack_.clear();
  stats_ = DeviceStats{};
  per_kernel_.clear();
  range_times_.clear();
  timeline_.clear();
  abort_graph();
}

void Device::push_range(const std::string& name) { range_stack_.push_back(name); }

void Device::pop_range() {
  LS2_CHECK(!range_stack_.empty()) << "pop_range with empty stack";
  range_stack_.pop_back();
}

void Device::attribute(double us) {
  if (!range_stack_.empty()) range_times_[range_stack_.back()] += us;
}

}  // namespace ls2::simgpu
