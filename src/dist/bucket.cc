#include "dist/bucket.h"

#include <algorithm>

#include "common/check.h"

namespace ls2::dist {

int64_t effective_bucket_bytes(const ClusterConfig& cluster,
                               const simgpu::DeviceProfile& profile) {
  // Wire time of B bucket bytes is 2(N-1)/N * B / bus; its latency term is
  // 2(N-1) * step_latency. Requiring wire >= 4x latency gives
  //     B >= 4 * step_latency * N * bus,
  // which bounds bucketing's total latency overhead at 25% of the wire time
  // no matter how many buckets the model splits into. N is the ring the
  // gradients actually travel: the DATA-parallel group (under hybrid
  // data x model parallelism the TP peers are not on this ring).
  const double min_bytes = 4.0 * profile.allreduce_latency_us *
                           cluster.dp_size() *
                           bottleneck_bus_gb_s(cluster, profile) * 1e3;
  return std::max(cluster.bucket_bytes, static_cast<int64_t>(min_bytes));
}

BucketPlan::BucketPlan(const layers::ParamRegistry& params, int64_t cap_bytes)
    : BucketPlan(params, {{0, params.size()}}, cap_bytes) {}

BucketPlan::BucketPlan(const layers::ParamRegistry& params,
                       const std::vector<layers::ParamRange>& ranges, int64_t cap_bytes) {
  LS2_CHECK(params.materialized()) << "bucket plan before materialize";
  LS2_CHECK(cap_bytes > 0) << "bucket cap must be positive";
  const int n = params.size();
  bucket_of_param_.assign(static_cast<size_t>(n), -1);

  // Coalesce the ranges into maximal runs of adjacent declarations.
  std::vector<layers::ParamRange> runs;
  for (const layers::ParamRange& r : ranges) {
    LS2_CHECK(r.begin >= 0 && r.end <= n) << "range [" << r.begin << ", " << r.end
                                          << ") outside " << n << " params";
    if (r.empty()) continue;
    LS2_CHECK(runs.empty() || runs.back().end <= r.begin)
        << "bucket ranges must ascend without overlap (at param " << r.begin << ")";
    if (!runs.empty() && runs.back().end == r.begin) {
      runs.back().end = r.end;
    } else {
      runs.push_back(r);
    }
  }

  // Walk each run from its last declared param to its first, closing a
  // bucket once it holds at least one param and would exceed the cap with
  // the next. Each bucket is a contiguous byte range because declaration
  // order is layout order.
  for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
    int end = run->end;  // param_end of the bucket being built (exclusive)
    int64_t acc = 0;
    for (int i = run->end - 1; i >= run->begin; --i) {
      const auto [b, e] = params.grad_byte_span(i);
      const int64_t bytes = static_cast<int64_t>(e - b);
      if (acc > 0 && acc + bytes > cap_bytes) {
        add_bucket(params, i + 1, end);
        end = i + 1;
        acc = 0;
      }
      acc += bytes;
    }
    add_bucket(params, run->begin, end);
  }
}

void BucketPlan::add_bucket(const layers::ParamRegistry& params, int param_begin,
                            int param_end) {
  GradBucket bucket;
  bucket.index = static_cast<int>(buckets_.size());
  bucket.param_begin = param_begin;
  bucket.param_end = param_end;
  bucket.byte_begin = params.grad_byte_span(param_begin).first;
  bucket.byte_end = params.grad_byte_span(param_end - 1).second;
  for (int i = param_begin; i < param_end; ++i) {
    bucket_of_param_[static_cast<size_t>(i)] = bucket.index;
  }
  total_bytes_ += bucket.bytes();
  buckets_.push_back(bucket);
}

int BucketPlan::bucket_of(int param_index) const {
  LS2_CHECK(param_index >= 0 &&
            param_index < static_cast<int>(bucket_of_param_.size()));
  return bucket_of_param_[static_cast<size_t>(param_index)];
}

Tensor BucketPlan::grad_view(const layers::ParamRegistry& params,
                             const GradBucket& b) const {
  return params.grad_byte_view(b.byte_begin, b.byte_end);
}

OverlapScheduler::OverlapScheduler(layers::ParamRegistry& params,
                                   simgpu::Device& device,
                                   const ClusterConfig& cluster,
                                   obs::MetricsRegistry* metrics)
    : params_(params),
      device_(device),
      metrics_(metrics),
      cluster_(cluster),
      plan_(params, effective_bucket_bytes(cluster, device.profile())) {
  LS2_CHECK(!params_.has_grad_ready_callback())
      << "another grad-ready listener is already installed";
  param_ready_.assign(static_cast<size_t>(params_.size()), 0);
  pending_in_bucket_.resize(static_cast<size_t>(plan_.size()));
  for (const GradBucket& b : plan_.buckets()) {
    pending_in_bucket_[static_cast<size_t>(b.index)] = b.params();
  }
  params_.set_grad_ready_callback(
      [this](const layers::ParamRange& r) { on_grads_ready(r); });
}

OverlapScheduler::~OverlapScheduler() { params_.clear_grad_ready_callback(); }

void OverlapScheduler::on_grads_ready(const layers::ParamRange& range) {
  if (finished_) return;
  for (int i = range.begin; i < range.end; ++i) {
    if (param_ready_[static_cast<size_t>(i)]) continue;  // shared params fire once
    param_ready_[static_cast<size_t>(i)] = 1;
    const int b = plan_.bucket_of(i);
    if (--pending_in_bucket_[static_cast<size_t>(b)] == 0) {
      flush(plan_.buckets()[static_cast<size_t>(b)]);
    }
  }
}

void OverlapScheduler::finish() {
  if (finished_) return;
  on_grads_ready({0, params_.size()});
  finished_ = true;
}

void OverlapScheduler::flush(const GradBucket& bucket) {
  const int64_t payload =
      wire_payload_bytes(bucket.bytes(), params_.dtype(), cluster_.wire_dtype);
  const double us = ring_allreduce_us(payload, cluster_, device_.profile());
  if (us <= 0) return;
  const double done = device_.enqueue_comm(us, "synchronize");
  enqueued_us_ += us;
  wire_bytes_ += payload;
  if (device_.record_timeline()) {
    // The bucket's ring transfer as a named span on the comm lane (tid 1):
    // visible overlap in the trace, one span per bucket per step.
    device_.timeline().record_span(
        /*pid=*/0, /*tid=*/1, "allreduce.b" + std::to_string(bucket.index),
        done - us, done);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("dist.bucket.flushes") += 1;
    metrics_->counter("dist.bucket.wire_bytes") += payload;
    metrics_->histogram("dist.bucket.allreduce_us").record(us);
  }
  if (bucket_done_) bucket_done_(bucket, done);
}

}  // namespace ls2::dist
