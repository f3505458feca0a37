// Gradient bucketing for overlapped data-parallel synchronization (§II-B
// stage 3, Fig. 22).
//
// The flat gradient workspace is partitioned into buckets in REVERSE
// declaration order: backward produces gradients roughly from the last
// declared parameter (criterion / top layers) to the first (embeddings), so
// bucket 0 — the byte range at the END of the flat buffer — fills first and
// its all-reduce can be launched on the communication stream while the
// backward pass is still running. Each bucket is one contiguous byte range;
// together the buckets tile the flat buffer exactly (no gap, no overlap,
// every parameter covered once). A plan may also cover only some
// declaration ranges — one pipeline stage's parameters — and then tiles
// exactly those ranges' bytes.
//
// BucketPlan is the partition. plan_buckets picks it: from the cost model
// below, fed what the previous eager step measured (a LaneTrace), or — on a
// step with no measurement — by a size cap. OverlapScheduler is the per-step
// driver that listens to ParamRegistry's grad-ready callback, enqueues each
// completed bucket's ring all-reduce on the device's comm stream, hands the
// update stage each bucket's landing and measures the step for the next
// plan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "dist/allreduce.h"
#include "layers/params.h"
#include "obs/metrics.h"
#include "simgpu/device.h"

namespace ls2::dist {

/// One communication bucket: params [param_begin, param_end) occupying
/// gradient bytes [byte_begin, byte_end). Bucket 0 holds the LAST declared
/// params (first ready during backward) and the highest byte range.
struct GradBucket {
  int index = 0;
  int param_begin = 0;
  int param_end = 0;
  size_t byte_begin = 0;
  size_t byte_end = 0;
  int64_t bytes() const { return static_cast<int64_t>(byte_end - byte_begin); }
  int params() const { return param_end - param_begin; }
};

/// A landing: a gradient byte range (the bucket's) and the time its
/// replica-averaged gradients are final. The update stage waits for it on
/// the comm stream, then runs the optimizer over those bytes
/// (core::train_step). -inf: final already, nothing to wait for.
struct Landing {
  GradBucket bucket;
  double done_us = -std::numeric_limits<double>::infinity();
};

/// Ascending, disjoint declaration ranges merged into maximal runs of
/// adjacent declarations (empty ranges dropped). Throws ls2::Error on a
/// range outside [0, n) or out of order.
std::vector<layers::ParamRange> coalesce_ranges(const std::vector<layers::ParamRange>& ranges,
                                                int n);

/// A partition of a registry's flat gradient buffer into buckets.
class BucketPlan {
 public:
  static constexpr int64_t kNoCap = std::numeric_limits<int64_t>::max();

  BucketPlan() = default;
  /// The whole registry: the one-range case of the constructor below.
  explicit BucketPlan(const layers::ParamRegistry& params, int64_t cap_bytes = kNoCap);
  /// Size-capped buckets over the params in `ranges` (ascending and
  /// disjoint; adjacent ranges coalesce): each run is walked from its last
  /// param down, closing a bucket once it holds a param and the next would
  /// exceed the cap. A bucket never spans a gap between ranges, so each
  /// stays one contiguous byte range. kNoCap gives one bucket per run.
  BucketPlan(const layers::ParamRegistry& params,
             const std::vector<layers::ParamRange>& ranges, int64_t cap_bytes = kNoCap);
  /// Explicit buckets, each one contiguous declaration range, listed from
  /// the highest declarations down (bucket 0 first).
  static BucketPlan from_buckets(const layers::ParamRegistry& params,
                                 const std::vector<layers::ParamRange>& buckets);

  const std::vector<GradBucket>& buckets() const { return buckets_; }
  int size() const { return static_cast<int>(buckets_.size()); }
  /// Which bucket holds a given parameter declaration index (-1 when the
  /// param lies outside the plan's ranges).
  int bucket_of(int param_index) const;
  /// Gradient bytes the plan covers.
  int64_t total_bytes() const { return total_bytes_; }

  /// The bucket's gradient payload as one tensor view (workspace registries
  /// only) — what a real implementation would hand to NCCL.
  Tensor grad_view(const layers::ParamRegistry& params, const GradBucket& b) const;

 private:
  void add_bucket(const layers::ParamRegistry& params, int param_begin, int param_end);

  std::vector<GradBucket> buckets_;
  std::vector<int> bucket_of_param_;
  int64_t total_bytes_ = 0;
};

// --- the cost model ----------------------------------------------------------
//
// A DP lane is the compute clock of the rank that rings a set of gradients
// plus the comm stream its rings queue on. The model replays one step on it
// (DESIGN.md §3):
//  * planning units — each range a model reports grad-ready — become ready
//    at their measured times; a bucket is enqueued when its last unit is;
//  * the comm stream is FIFO (simgpu::Device::enqueue_comm): a transfer
//    starts once it is enqueued and the stream is free. Tensor-parallel
//    collectives share the stream; when compute waits on one, the wait
//    delays every later compute event, unit readiness included;
//  * after backward, the update lane (pipeline_update) runs each bucket's
//    optimizer range once its ring has landed and the previous update has
//    finished; without it, one update follows the comm drain.
// The step ends when the last update does.

/// Per-bucket update cost: fixed + per_byte * bucket bytes.
struct UpdateCost {
  double fixed_us = 0;
  double per_byte_us = 0;
  double operator()(int64_t bytes) const {
    return fixed_us + per_byte_us * static_cast<double>(bytes);
  }
  /// Least-squares fit to measured (bytes, us) updates; with fewer than two
  /// distinct sizes the fixed part is `launch_us`, one kernel launch.
  static UpdateCost fit(const std::vector<std::pair<int64_t, double>>& samples,
                        double launch_us);
};

/// What one step measured on one DP lane. Times are microseconds on the
/// lane's compute clock with the waits on tensor-parallel collectives
/// removed (the model adds back the waits a plan causes). A trace the
/// planner keeps across steps is relative: backward ends at 0.
struct LaneTrace {
  struct Event {
    enum class Kind { kUnit, kTransfer, kWait };
    Kind kind = Kind::kUnit;
    double at_us = 0;   ///< compute time the event is issued at
    double us = 0;      ///< kTransfer: clean duration
    int index = 0;      ///< kUnit: unit; kTransfer / kWait: transfer
    bool last = false;  ///< kWait: the transfer's last wait
  };

  int params = 0;                          ///< registry size measured on
  std::vector<layers::ParamRange> ranges;  ///< the lane's runs (coalesced)
  /// Planning units — params made final by one grad-ready report, or left
  /// unreported until backward returned — in the order they became ready.
  /// Together they tile `ranges`.
  std::vector<layers::ParamRange> units;
  std::vector<Event> events;  ///< unit readiness and other comm traffic, in issue order
  int transfers = 0;          ///< kTransfer events
  double start_us = 0;        ///< step start
  double backward_end_us = 0;
  bool pipelined = true;  ///< per-bucket updates (ClusterConfig::pipeline_update)
  /// Buckets that become ready on the same unit flush in ascending
  /// declaration order (the comm-stream scheduler marks params in that
  /// order), else descending (a pipeline stage's analytic lane).
  bool ascending_ties = true;
  UpdateCost update;     ///< pipelined: one bucket's update
  double update_us = 0;  ///< not pipelined: the whole update

  /// The trace shifted so that backward ends at 0.
  LaneTrace relative() const;
};

/// The rings of one step: their cost at the wire dtype, stretched by the
/// step's straggler factor exactly as Device::enqueue_comm stretches them.
struct RingModel {
  ClusterConfig cluster;
  simgpu::DeviceProfile profile;
  DType storage = DType::kF32;  ///< gradient dtype in the registry
  double link_factor = 1.0;
  /// Clean ring time of `grad_bytes` storage bytes.
  double ring_us(int64_t grad_bytes) const;
};

/// The update lane after backward: each update starts once its bucket's
/// ring is done and the previous update has finished. Kept as the latest
/// such end and the total work, so it composes before the lane's start
/// (the end of backward) is known.
struct UpdateLane {
  double latest_us = -std::numeric_limits<double>::infinity();
  double work_us = 0;
  void add(double done_us, double update_us) {
    latest_us = std::max(latest_us, done_us) + update_us;
    work_us += update_us;
  }
  double end_us(double start_us) const { return std::max(start_us + work_us, latest_us); }
};

/// One plan replayed through the model.
struct LaneResult {
  std::vector<int> order;        ///< bucket indices in flush order
  std::vector<double> done_us;   ///< per bucket: ring completion
  double end_us = 0;             ///< the last update's end
};

/// Replay `plan` on `trace`'s lane. The comm stream is free from
/// trace.start_us + `comm_busy_us` (work still queued when the step starts,
/// e.g. a checkpoint drain).
LaneResult model_lane(const LaneTrace& trace, const BucketPlan& plan, const RingModel& ring,
                      double comm_busy_us = 0);

/// The bucket plan for one DP lane over `ranges`. With one replica it is one
/// bucket per run. Without a usable trace — none, or one taken on another
/// registry or other ranges — it is the cold-start size cap. Otherwise it
/// is whichever of the unit-granular optimum, the cold-start plan and one
/// bucket per run the model ends first.
BucketPlan plan_buckets(const layers::ParamRegistry& params,
                        const std::vector<layers::ParamRange>& ranges, const LaneTrace* trace,
                        const RingModel& ring, double comm_busy_us = 0);

/// The planner's state across steps, kept by the session: the latest
/// measurement of each lane (one at pp = 1, one per pipeline stage) and the
/// plans a captured step graph froze.
struct BucketMemo {
  std::vector<LaneTrace> lanes;
  std::vector<BucketPlan> frozen;
};

/// Per-step overlap driver. While alive it owns the registry's grad-ready
/// callback; as each bucket's parameters all become ready it charges that
/// bucket's ring all-reduce (at the cluster's WIRE dtype — FP16 wire halves
/// the payload of an FP32 wire) to the device's communication stream, where
/// it runs concurrently with the (compute-stream) backward kernels.
/// finish() flushes buckets whose params were never notified — they are
/// implicitly ready once backward has returned. It also measures the step:
/// when each param became ready and the other traffic on the comm stream.
class OverlapScheduler {
 public:
  /// `plan` must cover the whole registry. `metrics` (optional, not owned):
  /// each flushed bucket records its wire bytes and ring time under
  /// "dist.bucket.*", and lands a named "allreduce.b<i>" span on the comm
  /// lane of the device trace.
  OverlapScheduler(layers::ParamRegistry& params, simgpu::Device& device,
                   const ClusterConfig& cluster, BucketPlan plan,
                   obs::MetricsRegistry* metrics = nullptr);
  ~OverlapScheduler();
  OverlapScheduler(const OverlapScheduler&) = delete;
  OverlapScheduler& operator=(const OverlapScheduler&) = delete;

  /// Mark params [range.begin, range.end) final; flush any completed bucket.
  void on_grads_ready(const layers::ParamRange& range);
  /// Mark everything still pending as ready and flush remaining buckets.
  void finish();

  const BucketPlan& plan() const { return plan_; }
  /// After finish(): every bucket with the comm-stream time its ring
  /// completes, in flush order, so the times never decrease.
  const std::vector<Landing>& landings() const;
  /// Total comm-stream microseconds enqueued so far.
  double enqueued_us() const { return enqueued_us_; }
  /// Total modeled gradient bytes this rank put on the ring so far (at the
  /// wire dtype, not the storage dtype).
  int64_t wire_bytes() const { return wire_bytes_; }

  /// The step as measured from `step_begin_us` to finish(), which must have
  /// run at the end of backward; relative (backward ends at 0). The update
  /// fields are the caller's to fill.
  LaneTrace trace(double step_begin_us) const;

 private:
  void flush(const GradBucket& bucket);

  /// Params one grad-ready report made final, the compute clock then, and
  /// how many comm ops preceded it.
  struct Ready {
    layers::ParamRange range;
    double at_us;
    size_t ops;
  };

  layers::ParamRegistry& params_;
  simgpu::Device& device_;
  obs::MetricsRegistry* metrics_ = nullptr;
  ClusterConfig cluster_;
  BucketPlan plan_;
  std::vector<int> pending_in_bucket_;  // params not yet ready, per bucket
  std::vector<char> param_ready_;
  double enqueued_us_ = 0;
  int64_t wire_bytes_ = 0;
  bool finished_ = false;
  simgpu::CommLog log_;
  std::vector<Ready> ready_;
  std::vector<Landing> landings_;
  std::vector<size_t> own_ops_;  ///< log positions of this scheduler's rings
  size_t ops_at_finish_ = 0;
  double finished_at_us_ = 0;
};

}  // namespace ls2::dist
