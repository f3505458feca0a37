// Gradient bucketing for overlapped data-parallel synchronization (§II-B
// stage 3, Fig. 22).
//
// The flat gradient workspace is partitioned into size-capped buckets in
// REVERSE declaration order: backward produces gradients roughly from the
// last declared parameter (criterion / top layers) to the first (embeddings),
// so bucket 0 — the byte range at the END of the flat buffer — fills first
// and its all-reduce can be launched on the communication stream while the
// backward pass is still running. Each bucket is one contiguous byte range;
// together the buckets tile the flat buffer exactly (no gap, no overlap,
// every parameter covered once). A plan may also cover only some
// declaration ranges — one pipeline stage's parameters — and then tiles
// exactly those ranges' bytes.
//
// BucketPlan is the static partition; OverlapScheduler is the per-step
// driver that listens to ParamRegistry's grad-ready callback and enqueues
// each completed bucket's ring all-reduce on the device's comm stream.
#pragma once

#include <cstdint>
#include <functional>
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

/// Effective bucket cap for a cluster: at least `cluster.bucket_bytes`, but
/// grown until one bucket's wire time is >= 4x its per-ring latency term —
/// otherwise on large rings (many nodes, high per-step latency) the
/// repeated ring setup would cost more than bucketing saves, and the
/// "overlapped" path could end up slower than one blocking all-reduce.
int64_t effective_bucket_bytes(const ClusterConfig& cluster,
                               const simgpu::DeviceProfile& profile);

/// Size-capped partition of a registry's flat gradient buffer.
class BucketPlan {
 public:
  BucketPlan() = default;
  /// The whole registry: the one-range case of the constructor below.
  explicit BucketPlan(const layers::ParamRegistry& params,
                      int64_t cap_bytes = ClusterConfig{}.bucket_bytes);
  /// Only the params in `ranges` (ascending and disjoint; adjacent ranges
  /// coalesce). A bucket never spans a gap between ranges, so each stays
  /// one contiguous byte range.
  BucketPlan(const layers::ParamRegistry& params,
             const std::vector<layers::ParamRange>& ranges, int64_t cap_bytes);

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

/// Per-step overlap driver. While alive it owns the registry's grad-ready
/// callback; as each bucket's parameters all become ready it charges that
/// bucket's ring all-reduce (at the cluster's WIRE dtype — FP16 wire halves
/// the payload of an FP32 wire) to the device's communication stream, where
/// it runs concurrently with the (compute-stream) backward kernels.
/// finish() flushes buckets whose params were never notified — they are
/// implicitly ready once backward has returned.
class OverlapScheduler {
 public:
  /// Invoked right after a bucket's ring time has been charged to the comm
  /// stream: the bucket plus the comm-stream clock at which its all-reduce
  /// completes (its gradients are replica-averaged from then on). The
  /// pipelined train_step uses this to launch the bucket's optimizer update
  /// as soon as the transfer lands. Buckets fire in flush order, so the
  /// completion times a listener observes are non-decreasing.
  using BucketDoneFn = std::function<void(const GradBucket&, double comm_done_us)>;

  /// `metrics` (optional, not owned): each flushed bucket records its wire
  /// bytes and ring time under "dist.bucket.*", and lands a named
  /// "allreduce.b<i>" span on the comm lane of the device trace.
  OverlapScheduler(layers::ParamRegistry& params, simgpu::Device& device,
                   const ClusterConfig& cluster,
                   obs::MetricsRegistry* metrics = nullptr);
  ~OverlapScheduler();
  OverlapScheduler(const OverlapScheduler&) = delete;
  OverlapScheduler& operator=(const OverlapScheduler&) = delete;

  /// Install the bucket-complete listener (before backward starts).
  void set_bucket_done_callback(BucketDoneFn fn) { bucket_done_ = std::move(fn); }

  /// Mark params [range.begin, range.end) final; flush any completed bucket.
  void on_grads_ready(const layers::ParamRange& range);
  /// Mark everything still pending as ready and flush remaining buckets.
  void finish();

  const BucketPlan& plan() const { return plan_; }
  /// Total comm-stream microseconds enqueued so far.
  double enqueued_us() const { return enqueued_us_; }
  /// Total modeled gradient bytes this rank put on the ring so far (at the
  /// wire dtype, not the storage dtype).
  int64_t wire_bytes() const { return wire_bytes_; }

 private:
  void flush(const GradBucket& bucket);

  layers::ParamRegistry& params_;
  simgpu::Device& device_;
  obs::MetricsRegistry* metrics_ = nullptr;
  ClusterConfig cluster_;
  BucketPlan plan_;
  BucketDoneFn bucket_done_;
  std::vector<int> pending_in_bucket_;  // params not yet ready, per bucket
  std::vector<char> param_ready_;
  double enqueued_us_ = 0;
  int64_t wire_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace ls2::dist
