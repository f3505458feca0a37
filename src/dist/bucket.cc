#include "dist/bucket.h"

#include <algorithm>

#include "common/check.h"

namespace ls2::dist {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// PyTorch DDP's default bucket size: the floor of the cold-start cap.
constexpr int64_t kDdpBucketBytes = 25 * 1024 * 1024;

/// The cold-start cap, for a step with no measurement to plan from: at
/// least kDdpBucketBytes, grown until one bucket's wire time is >= 4x its
/// per-ring latency. Wire time of B bucket bytes is 2(N-1)/N * B / bus; its
/// latency term is 2(N-1) * step_latency, so B >= 4 * step_latency * N * bus
/// bounds the latency overhead at 25% of the wire time however many buckets
/// the model splits into. N is the data-parallel ring (TP peers are not on
/// it).
int64_t cold_start_cap(const ClusterConfig& cluster, const simgpu::DeviceProfile& profile) {
  const double min_bytes = 4.0 * profile.allreduce_latency_us * cluster.dp_size() *
                           bottleneck_bus_gb_s(cluster, profile) * 1e3;
  return std::max(kDdpBucketBytes, static_cast<int64_t>(min_bytes));
}

/// The lane while the model replays a step.
struct LaneState {
  double comm = -kInf;  ///< when the comm stream frees
  double shift = 0;     ///< compute delay from the waits so far
  UpdateLane update;
  /// Per TP transfer: its completion while a later wait still reads it,
  /// else -inf (so finished transfers never block a dominance test).
  std::vector<double> transfer_done;

  /// Every part of the state is no later than `o`'s: whatever follows, this
  /// lane ends no later.
  bool dominates(const LaneState& o) const {
    if (comm > o.comm || shift > o.shift || update.latest_us > o.update.latest_us ||
        update.work_us > o.update.work_us)
      return false;
    for (size_t i = 0; i < transfer_done.size(); ++i) {
      if (transfer_done[i] > o.transfer_done[i]) return false;
    }
    return true;
  }
};

/// The model's rules over one trace; the planner's search and model_lane
/// both step lanes through these.
class LaneModel {
 public:
  LaneModel(const LaneTrace& trace, const RingModel& ring) : trace_(trace), ring_(ring) {}

  LaneState start(double comm_busy_us) const {
    LaneState s;
    s.comm = trace_.start_us + comm_busy_us;
    s.transfer_done.assign(static_cast<size_t>(trace_.transfers), -kInf);
    return s;
  }

  /// A TP transfer or a wait on one; unit events are the caller's.
  void traffic(LaneState& s, const LaneTrace::Event& e) const {
    if (e.kind == LaneTrace::Event::Kind::kUnit) return;
    const double now = e.at_us + s.shift;
    double& done = s.transfer_done[static_cast<size_t>(e.index)];
    if (e.kind == LaneTrace::Event::Kind::kTransfer) {
      s.comm = std::max(s.comm, now) + e.us * ring_.link_factor;
      done = s.comm;
    } else {
      s.shift += std::max(0.0, done - now);
      if (e.last) done = -kInf;
    }
  }

  /// Enqueue one bucket's ring at compute time `at_us`; returns its completion.
  double ring(LaneState& s, double at_us, int64_t bytes) const {
    s.comm = std::max(s.comm, at_us + s.shift) + ring_.ring_us(bytes) * ring_.link_factor;
    if (trace_.pipelined) s.update.add(s.comm, trace_.update(bytes));
    return s.comm;
  }

  /// Run the events from `from` on and return when the last update ends.
  double end(LaneState s, size_t from) const {
    for (size_t e = from; e < trace_.events.size(); ++e) traffic(s, trace_.events[e]);
    const double t2 = trace_.backward_end_us + s.shift;  // backward's end, with the waits
    return trace_.pipelined ? std::max(s.update.end_us(t2), s.comm)
                            : std::max(t2, s.comm) + trace_.update_us;
  }

 private:
  const LaneTrace& trace_;
  const RingModel& ring_;
};

int64_t span_bytes(const layers::ParamRegistry& params, const layers::ParamRange& r) {
  return static_cast<int64_t>(params.grad_byte_span(r.end - 1).second -
                              params.grad_byte_span(r.begin).first);
}

/// The model's best plan among those whose buckets are runs of units
/// consecutive in ready order — every contiguous partition when units
/// become ready from the last declared down, the order backward reports
/// them. A dynamic program over the ready order: the lane after a bucket
/// closes on unit i depends only on the plan so far through its state, and
/// a state no later than another in every part ends no later, so each
/// position keeps only its non-dominated states.
BucketPlan unit_optimum(const layers::ParamRegistry& params, const LaneTrace& trace,
                        const RingModel& ring, double comm_busy_us) {
  const LaneModel model(trace, ring);
  const int u_count = static_cast<int>(trace.units.size());
  std::vector<size_t> unit_event(trace.units.size());
  for (size_t e = 0; e < trace.events.size(); ++e) {
    const LaneTrace::Event& ev = trace.events[e];
    if (ev.kind == LaneTrace::Event::Kind::kUnit) unit_event[static_cast<size_t>(ev.index)] = e;
  }

  struct Node {
    LaneState lane;
    int prev;   ///< node before this bucket (-1: the start)
    int first;  ///< the bucket is units [first, last)
    int last;
  };
  std::vector<Node> nodes{{model.start(comm_busy_us), -1, 0, 0}};
  std::vector<std::vector<int>> front(static_cast<size_t>(u_count) + 1);
  front[0] = {0};
  auto insert = [&](std::vector<int>& at, Node node) {
    for (int id : at) {
      if (nodes[static_cast<size_t>(id)].lane.dominates(node.lane)) return;
    }
    std::erase_if(at, [&](int id) { return node.lane.dominates(nodes[static_cast<size_t>(id)].lane); });
    at.push_back(static_cast<int>(nodes.size()));
    nodes.push_back(std::move(node));
  };

  for (int j = 0; j < u_count; ++j) {
    const std::vector<int> starts = front[static_cast<size_t>(j)];
    for (int id : starts) {
      LaneState lane = nodes[static_cast<size_t>(id)].lane;
      size_t e = j == 0 ? 0 : unit_event[static_cast<size_t>(j - 1)] + 1;
      layers::ParamRange span = trace.units[static_cast<size_t>(j)];
      for (int i = j; i < u_count; ++i) {
        const layers::ParamRange& u = trace.units[static_cast<size_t>(i)];
        if (i > j) {  // the bucket grows only by a unit adjacent to it
          if (u.end == span.begin) {
            span.begin = u.begin;
          } else if (u.begin == span.end) {
            span.end = u.end;
          } else {
            break;
          }
        }
        for (; e < unit_event[static_cast<size_t>(i)]; ++e) model.traffic(lane, trace.events[e]);
        Node next{lane, id, j, i + 1};
        model.ring(next.lane, trace.events[e].at_us, span_bytes(params, span));
        insert(front[static_cast<size_t>(i) + 1], std::move(next));
      }
    }
  }

  const size_t tail = u_count == 0 ? 0 : unit_event.back() + 1;
  int best = -1;
  double best_end = kInf;
  for (int id : front.back()) {
    const double end = model.end(nodes[static_cast<size_t>(id)].lane, tail);
    if (end < best_end) {
      best_end = end;
      best = id;
    }
  }
  std::vector<layers::ParamRange> buckets;
  for (int id = best; id > 0; id = nodes[static_cast<size_t>(id)].prev) {
    const Node& n = nodes[static_cast<size_t>(id)];
    layers::ParamRange b = trace.units[static_cast<size_t>(n.first)];
    for (int i = n.first + 1; i < n.last; ++i) {
      b.begin = std::min(b.begin, trace.units[static_cast<size_t>(i)].begin);
      b.end = std::max(b.end, trace.units[static_cast<size_t>(i)].end);
    }
    buckets.push_back(b);
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const layers::ParamRange& a, const layers::ParamRange& b) {
              return a.begin > b.begin;
            });
  return BucketPlan::from_buckets(params, buckets);
}

bool same_ranges(const std::vector<layers::ParamRange>& a,
                 const std::vector<layers::ParamRange>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const layers::ParamRange& x, const layers::ParamRange& y) {
                      return x.begin == y.begin && x.end == y.end;
                    });
}

}  // namespace

std::vector<layers::ParamRange> coalesce_ranges(const std::vector<layers::ParamRange>& ranges,
                                                int n) {
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
  return runs;
}

BucketPlan::BucketPlan(const layers::ParamRegistry& params, int64_t cap_bytes)
    : BucketPlan(params, {{0, params.size()}}, cap_bytes) {}

BucketPlan::BucketPlan(const layers::ParamRegistry& params,
                       const std::vector<layers::ParamRange>& ranges, int64_t cap_bytes) {
  LS2_CHECK(params.materialized()) << "bucket plan before materialize";
  LS2_CHECK(cap_bytes > 0) << "bucket cap must be positive";
  bucket_of_param_.assign(static_cast<size_t>(params.size()), -1);
  const std::vector<layers::ParamRange> runs = coalesce_ranges(ranges, params.size());

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

BucketPlan BucketPlan::from_buckets(const layers::ParamRegistry& params,
                                    const std::vector<layers::ParamRange>& buckets) {
  LS2_CHECK(params.materialized()) << "bucket plan before materialize";
  BucketPlan plan;
  plan.bucket_of_param_.assign(static_cast<size_t>(params.size()), -1);
  for (const layers::ParamRange& b : buckets) {
    LS2_CHECK(!b.empty() && b.begin >= 0 && b.end <= params.size())
        << "bucket [" << b.begin << ", " << b.end << ") outside " << params.size()
        << " params";
    LS2_CHECK(plan.buckets_.empty() || b.end <= plan.buckets_.back().param_begin)
        << "buckets must descend without overlap (at param " << b.begin << ")";
    plan.add_bucket(params, b.begin, b.end);
  }
  return plan;
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

UpdateCost UpdateCost::fit(const std::vector<std::pair<int64_t, double>>& samples,
                           double launch_us) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [bytes, us] : samples) {
    const double x = static_cast<double>(bytes);
    n += 1;
    sx += x;
    sy += us;
    sxx += x * x;
    sxy += x * us;
  }
  UpdateCost c;
  const double var = n * sxx - sx * sx;
  if (n >= 2 && var > 1e-9 * n * sxx) {
    c.per_byte_us = std::max(0.0, (n * sxy - sx * sy) / var);
    c.fixed_us = std::max(0.0, (sy - c.per_byte_us * sx) / n);
  } else if (sx > 0) {
    c.fixed_us = launch_us;
    c.per_byte_us = std::max(0.0, (sy - n * launch_us) / sx);
  }
  return c;
}

LaneTrace LaneTrace::relative() const {
  LaneTrace t = *this;
  const double origin = backward_end_us;
  t.start_us -= origin;
  t.backward_end_us = 0;
  for (Event& e : t.events) e.at_us -= origin;
  return t;
}

double RingModel::ring_us(int64_t grad_bytes) const {
  return ring_allreduce_us(wire_payload_bytes(grad_bytes, storage, cluster.wire_dtype),
                           cluster, profile);
}

LaneResult model_lane(const LaneTrace& trace, const BucketPlan& plan, const RingModel& ring,
                      double comm_busy_us) {
  const LaneModel model(trace, ring);
  // Each bucket is enqueued on the latest of its units' readiness events.
  std::vector<size_t> closing(static_cast<size_t>(plan.size()), 0);
  std::vector<char> covered(static_cast<size_t>(plan.size()), 0);
  for (size_t e = 0; e < trace.events.size(); ++e) {
    const LaneTrace::Event& ev = trace.events[e];
    if (ev.kind != LaneTrace::Event::Kind::kUnit) continue;
    const layers::ParamRange& u = trace.units[static_cast<size_t>(ev.index)];
    for (int p = u.begin; p < u.end; ++p) {
      const int b = plan.bucket_of(p);
      LS2_CHECK(b >= 0) << "unit param " << p << " outside the bucket plan";
      closing[static_cast<size_t>(b)] = std::max(closing[static_cast<size_t>(b)], e);
      covered[static_cast<size_t>(b)] = 1;
    }
  }
  LaneResult r;
  for (int b = 0; b < plan.size(); ++b) {
    LS2_CHECK(covered[static_cast<size_t>(b)]) << "bucket " << b << " holds no measured unit";
    r.order.push_back(b);
  }
  auto key = [&](int b) {
    const int begin = plan.buckets()[static_cast<size_t>(b)].param_begin;
    return std::make_pair(closing[static_cast<size_t>(b)], trace.ascending_ties ? begin : -begin);
  };
  std::sort(r.order.begin(), r.order.end(), [&](int a, int b) { return key(a) < key(b); });

  r.done_us.assign(static_cast<size_t>(plan.size()), 0.0);
  LaneState lane = model.start(comm_busy_us);
  size_t next = 0;
  for (size_t e = 0; e < trace.events.size(); ++e) {
    const LaneTrace::Event& ev = trace.events[e];
    model.traffic(lane, ev);
    for (; next < r.order.size() && closing[static_cast<size_t>(r.order[next])] == e; ++next) {
      const GradBucket& b = plan.buckets()[static_cast<size_t>(r.order[next])];
      r.done_us[static_cast<size_t>(b.index)] = model.ring(lane, ev.at_us, b.bytes());
    }
  }
  r.end_us = model.end(lane, trace.events.size());
  return r;
}

BucketPlan plan_buckets(const layers::ParamRegistry& params,
                        const std::vector<layers::ParamRange>& ranges, const LaneTrace* trace,
                        const RingModel& ring, double comm_busy_us) {
  if (ring.cluster.dp_size() <= 1) return BucketPlan(params, ranges);
  BucketPlan cold(params, ranges, cold_start_cap(ring.cluster, ring.profile));
  if (trace == nullptr || trace->params != params.size() ||
      !same_ranges(trace->ranges, coalesce_ranges(ranges, params.size()))) {
    return cold;
  }
  BucketPlan best = unit_optimum(params, *trace, ring, comm_busy_us);
  double best_end = model_lane(*trace, best, ring, comm_busy_us).end_us;
  for (const BucketPlan& candidate : {std::move(cold), BucketPlan(params, ranges)}) {
    const double end = model_lane(*trace, candidate, ring, comm_busy_us).end_us;
    if (end < best_end) {
      best_end = end;
      best = candidate;
    }
  }
  return best;
}

OverlapScheduler::OverlapScheduler(layers::ParamRegistry& params,
                                   simgpu::Device& device,
                                   const ClusterConfig& cluster, BucketPlan plan,
                                   obs::MetricsRegistry* metrics)
    : params_(params),
      device_(device),
      metrics_(metrics),
      cluster_(cluster),
      plan_(std::move(plan)),
      log_(device) {
  LS2_CHECK(!params_.has_grad_ready_callback())
      << "another grad-ready listener is already installed";
  LS2_CHECK(plan_.total_bytes() == static_cast<int64_t>(params_.flat_grad_bytes()))
      << "bucket plan covers " << plan_.total_bytes() << " of "
      << params_.flat_grad_bytes() << " gradient bytes";
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
  const size_t first = ready_.size();
  const size_t ops = log_.ops().size();
  const double now = device_.clock_us();
  for (int i = range.begin; i < range.end; ++i) {
    if (param_ready_[static_cast<size_t>(i)]) continue;  // shared params fire once
    param_ready_[static_cast<size_t>(i)] = 1;
    if (ready_.size() > first && ready_.back().range.end == i) {
      ready_.back().range.end = i + 1;
    } else {
      ready_.push_back({{i, i + 1}, now, ops});
    }
    const int b = plan_.bucket_of(i);
    if (--pending_in_bucket_[static_cast<size_t>(b)] == 0) {
      flush(plan_.buckets()[static_cast<size_t>(b)]);
    }
  }
}

void OverlapScheduler::finish() {
  if (finished_) return;
  ops_at_finish_ = log_.ops().size();
  finished_at_us_ = device_.clock_us();
  on_grads_ready({0, params_.size()});
  finished_ = true;
}

void OverlapScheduler::flush(const GradBucket& bucket) {
  const int64_t payload =
      wire_payload_bytes(bucket.bytes(), params_.dtype(), cluster_.wire_dtype);
  const double us = ring_allreduce_us(payload, cluster_, device_.profile());
  if (us <= 0) return;
  own_ops_.push_back(log_.ops().size());
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
  landings_.push_back({bucket, done});
}

const std::vector<Landing>& OverlapScheduler::landings() const {
  LS2_CHECK(finished_) << "landings before finish";
  return landings_;
}

LaneTrace OverlapScheduler::trace(double step_begin_us) const {
  LS2_CHECK(finished_) << "trace before finish";
  using Kind = LaneTrace::Event::Kind;
  LaneTrace t;
  t.params = params_.size();
  t.ranges = coalesce_ranges({{0, params_.size()}}, params_.size());
  // Replay the log in issue order. Every wait on a TP transfer is a stall
  // this plan caused; the trace keeps compute times without them.
  const std::vector<simgpu::CommLog::Op>& ops = log_.ops();
  std::vector<double> done;     // per TP transfer: measured completion
  std::vector<size_t> last(0);  // per TP transfer: its last wait event (+1; 0 = none)
  double stall = 0;
  size_t r = 0, own = 0;
  auto add_ready = [&](const Ready& rd) {
    t.events.push_back({Kind::kUnit, rd.at_us - stall, 0, static_cast<int>(t.units.size())});
    t.units.push_back(rd.range);
  };
  for (size_t o = 0; o < ops_at_finish_; ++o) {
    while (r < ready_.size() && ready_[r].ops <= o) add_ready(ready_[r++]);
    if (own < own_ops_.size() && own_ops_[own] == o) {
      ++own;
      continue;
    }
    const simgpu::CommLog::Op& op = ops[o];
    if (!op.wait) {
      t.events.push_back({Kind::kTransfer, op.at_us - stall, op.us, t.transfers++});
      done.push_back(op.done_us);
      last.push_back(0);
      continue;
    }
    // The transfer a wait reads is the latest one done by its time; a wait
    // on nothing of the step's stays part of compute.
    int k = t.transfers - 1;
    while (k >= 0 && done[static_cast<size_t>(k)] > op.done_us) --k;
    if (k < 0) continue;
    t.events.push_back({Kind::kWait, op.at_us - stall, 0, k});
    last[static_cast<size_t>(k)] = t.events.size();
    stall += op.stall_us;
  }
  while (r < ready_.size()) add_ready(ready_[r++]);
  for (size_t w : last) {
    if (w > 0) t.events[w - 1].last = true;
  }
  t.start_us = step_begin_us;
  t.backward_end_us = finished_at_us_ - stall;
  return t.relative();
}

}  // namespace ls2::dist
