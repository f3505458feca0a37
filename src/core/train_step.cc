#include "core/train_step.h"

#include <cstdio>
#include <limits>

#include "dist/pipeline.h"
#include "memory/caching_allocator.h"

namespace ls2::core::detail {

/// Cross-step state of the pipeline lane.
struct PpState {
  /// Throwaway device + allocator backing stages >= 1's activations: their
  /// alloc traffic must neither count against rank-0 memory nor poison a
  /// session graph capture. kVirtual backing in model-only mode lets
  /// paper-scale stages "allocate" without committing host memory.
  std::unique_ptr<simgpu::Device> remote_dev;
  std::unique_ptr<mem::CachingAllocator> remote_alloc;
  double trace_base_us = 0;  ///< virtual time base for per-step trace spans
  bool trace_named = false;  ///< per-rank trace processes named once
};

namespace {
size_t su(int x) { return static_cast<size_t>(x); }

constexpr double kNever = -std::numeric_limits<double>::infinity();

/// This step's ring costs: a stragglered link stretches every ring, on the
/// comm stream and on the analytic lanes alike.
dist::RingModel ring_model(const simgpu::Device& dev, const layers::ParamRegistry& params,
                           const dist::ClusterConfig& cluster) {
  return {cluster, dev.profile(), params.dtype(),
          dev.fault_injector() != nullptr ? dev.fault_injector()->comm_factor() : 1.0};
}
}  // namespace

std::vector<dist::BucketPlan> plan_step_buckets(
    Session& session, const layers::ParamRegistry& params,
    const std::vector<std::vector<layers::ParamRange>>& lanes,
    const dist::ClusterConfig& cluster, GraphAction action, double comm_busy_us) {
  dist::BucketMemo& memo = session.bucket_memo;
  if (action == GraphAction::kReplay && memo.frozen.size() == lanes.size()) return memo.frozen;
  const dist::RingModel ring = ring_model(session.device(), params, cluster);
  const bool measured = memo.lanes.size() == lanes.size();
  std::vector<dist::BucketPlan> plans;
  for (size_t i = 0; i < lanes.size(); ++i) {
    plans.push_back(dist::plan_buckets(params, lanes[i], measured ? &memo.lanes[i] : nullptr,
                                       ring, comm_busy_us));
  }
  if (action == GraphAction::kCapture) memo.frozen = plans;
  return plans;
}

std::vector<std::pair<double, double>> update_landings(
    Session& session, optim::Optimizer& trainer, const std::vector<dist::Landing>& landings) {
  simgpu::Device& dev = session.device();
  std::vector<std::pair<double, double>> windows;
  trainer.begin_step();
  for (const dist::Landing& l : landings) {
    dev.wait_comm_until(l.done_us, "synchronize");
    obs::SpanScope r(dev, "update");
    const double u0 = dev.clock_us();
    trainer.step_range(session.ctx().kern, l.bucket.byte_begin, l.bucket.byte_end);
    windows.emplace_back(u0, dev.clock_us());
  }
  trainer.end_step();
  return windows;
}

PipelineStep::PipelineStep(Session& session, layers::ParamRegistry& params,
                           const layers::PpPlan& plan, const dist::ClusterConfig& cluster,
                           std::vector<dist::BucketPlan> buckets, int64_t denominator)
    : session_(session),
      dev_(session.device()),
      ctx_(session.ctx()),
      params_(params),
      cluster_(cluster),
      group_(cluster),
      pp_(cluster.pipeline_parallel),
      m_(cluster.microbatches),
      denominator_(denominator),
      tied_param_(plan.tied_param.index),
      buckets_(std::move(buckets)),
      stage_params_(plan.stage_params),
      local_act_(ctx_.activation_allocator()),
      act_base_(session.activations().bytes_in_use()),
      fdur_(su(pp_), std::vector<double>(su(m_), 0.0)),
      bdur_(fdur_),
      fwd_bytes_(su(pp_ - 1), 0),
      bwd_bytes_(su(pp_ - 1), 0),
      ready_report_(su(params.size()), -1) {
  LS2_CHECK(plan.stages == pp_) << "plan stages " << plan.stages << " vs pp " << pp_;
  LS2_CHECK(static_cast<int>(buckets_.size()) == pp_)
      << buckets_.size() << " bucket plans for " << pp_ << " stages";
  // Each stage is a different rank, so each buckets only its own params.
  int64_t covered = 0;
  for (const dist::BucketPlan& b : buckets_) covered += b.total_bytes();
  LS2_CHECK(covered == static_cast<int64_t>(params.flat_grad_bytes()))
      << "stage partition covers " << covered << " of " << params.flat_grad_bytes()
      << " gradient bytes";

  state_ = std::static_pointer_cast<PpState>(session.pp_state);
  if (!state_) {
    state_ = std::make_shared<PpState>();
    state_->remote_dev = std::make_unique<simgpu::Device>(dev_.profile(), dev_.mode());
    state_->remote_alloc = std::make_unique<mem::CachingAllocator>(
        *state_->remote_dev, dev_.mode() == simgpu::ExecMode::kExecute
                                 ? mem::DeviceAllocator::Backing::kMalloc
                                 : mem::DeviceAllocator::Backing::kVirtual);
    session.pp_state = state_;
  }

  hooks_.enter = [this](int stage, bool forward, int64_t payload) {
    enter(stage, forward, payload);
  };
  ctx_.pp = &hooks_;
  ctx_.pp_loss_carry = &loss_carry_;
  ctx_.pp_metric_carry = &metric_carry_;
  ctx_.pp_denominator = denominator;
}

PipelineStep::~PipelineStep() {
  params_.clear_grad_ready_callback();
  ctx_.pp = nullptr;
  ctx_.pp_loss_carry = nullptr;
  ctx_.pp_metric_carry = nullptr;
  ctx_.pp_denominator = 0;
  ctx_.pp_flush = false;
  ctx_.kern.microbatch = 0;
  ctx_.set_activation_allocator(local_act_);
}

void PipelineStep::begin_microbatch(int j) {
  cur_mb_ = j;
  ctx_.kern.microbatch = static_cast<uint64_t>(j);
  ctx_.kern.dropout_site = 1;  // every microbatch walks the full batch's site order
  ctx_.pp_flush = (j == m_ - 1);  // layers flush deferred tied-table work
  if (j == m_ - 1) {
    // Gradients are FINAL only on the last microbatch: record each report
    // as an offset into the chunk running at the time, and each param's
    // first report.
    params_.set_grad_ready_callback([this](const layers::ParamRange& range) {
      const int report = static_cast<int>(report_offset_.size());
      report_offset_.push_back(dev_.clock_us() - chunk_begin_);
      for (int i = range.begin; i < range.end; ++i) {
        int& r = ready_report_[su(i)];
        if (r < 0) r = report;
      }
    });
  }
}

void PipelineStep::enter(int stage, bool forward, int64_t payload) {
  LS2_CHECK(stage >= 0 && stage < pp_) << "pp_enter stage " << stage;
  const double now = dev_.clock_us();
  close_chunk();
  if (cur_mb_ == 0) {  // microbatches are equal-sized: record payloads once
    if (forward && stage > 0) {
      fwd_bytes_[su(stage - 1)] = payload;
    } else if (!forward && stage + 1 < pp_) {
      bwd_bytes_[su(stage)] = payload;
    }
  }
  // Leaving stage 0 for the first time: one microbatch's stage-0
  // activation footprint is now live; a real 1F1B stage 0 holds
  // min(pp, m) such sets at its steady-state peak, so reserve the
  // difference for honest arena/capacity accounting.
  if (forward && stage == 1 && cur_mb_ == 0 && residency_.empty()) {
    const int64_t live = session_.activations().bytes_in_use() - act_base_;
    for (int i = std::min(pp_, m_) - 1; i > 0 && live > 0; --i) {
      residency_.push_back(Tensor::empty({live}, DType::kU8, local_act_));
    }
  }
  ctx_.set_activation_allocator(stage == 0 ? local_act_ : state_->remote_alloc.get());
  cur_stage_ = stage;
  cur_fwd_ = forward;
  chunk_begin_ = now;  // a residency allocation stall counts toward this chunk
  chunk_open_ = true;
}

void PipelineStep::close_chunk() {
  if (chunk_open_) {
    (cur_fwd_ ? fdur_ : bdur_)[su(cur_stage_)][su(cur_mb_)] += dev_.clock_us() - chunk_begin_;
  }
  chunk_open_ = false;
}

dist::LaneTrace PipelineStep::stage_lane(int s, double bstart, double bend,
                                        double tied_arrival) const {
  dist::LaneTrace lane;
  lane.params = params_.size();
  lane.ranges = dist::coalesce_ranges(stage_params_[su(s)], params_.size());
  lane.backward_end_us = bend;
  lane.ascending_ties = false;
  // Units: runs of params first named by the same report; the tied table
  // is a unit of its own, since its gradient is final only once home.
  struct Unit {
    layers::ParamRange range;
    double ready_us;
  };
  std::vector<Unit> units;
  for (const layers::ParamRange& run : lane.ranges) {
    for (int i = run.begin; i < run.end;) {
      const int report = ready_report_[su(i)];
      int j = i + 1;
      while (i != tied_param_ && j < run.end && j != tied_param_ &&
             ready_report_[su(j)] == report) {
        ++j;
      }
      double ready = report >= 0 ? bstart + report_offset_[su(report)] : bend;
      if (i == tied_param_) ready = std::max(ready, tied_arrival);
      units.push_back({{i, j}, ready});
      i = j;
    }
  }
  // Ready order; a tie keeps the later-declared unit first.
  std::reverse(units.begin(), units.end());
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) { return a.ready_us < b.ready_us; });
  for (const Unit& u : units) {
    lane.events.push_back({dist::LaneTrace::Event::Kind::kUnit, u.ready_us, 0,
                           static_cast<int>(lane.units.size())});
    lane.units.push_back(u.range);
  }
  return lane;
}

void PipelineStep::sync_and_update(optim::Optimizer& trainer, StepTimes& times,
                                   bool replayed) {
  const simgpu::DeviceProfile& prof = dev_.profile();

  // --- reconstruct the 1F1B schedule from the measured chunks ---
  dist::PipelineScheduleInput sin;
  sin.stages = pp_;
  sin.microbatches = m_;
  sin.f = fdur_;
  sin.b = bdur_;
  for (int s = 0; s + 1 < pp_; ++s) {
    sin.fwd_p2p_us.push_back(group_.stage_send_us(fwd_bytes_[su(s)], s, prof));
    sin.bwd_p2p_us.push_back(group_.stage_send_us(bwd_bytes_[su(s)], s, prof));
  }
  const dist::PipelineSchedule sched = dist::solve_1f1b(sin);
  // Rank 0's lane: stage 0's chunks replace the all-stage device sums.
  times.forward_us = 0;
  times.backward_us = 0;
  for (int j = 0; j < m_; ++j) {
    times.forward_us += fdur_[0][su(j)];
    times.backward_us += bdur_[0][su(j)];
  }
  times.pp_bubble_us = sched.lanes[0].bubble_us;
  times.pp_exposed_us = sched.lanes[0].comm_idle_us;
  times.pp_comm_us = m_ * (sin.fwd_p2p_us[0] + sin.bwd_p2p_us[0]);

  std::vector<double> bstart_last(su(pp_), 0.0), bend_last(su(pp_), 0.0);
  for (int s = 0; s < pp_; ++s) {
    for (const dist::PipelineChunk& c : sched.lanes[su(s)].chunks) {
      if (!c.forward && c.microbatch == m_ - 1) {
        bstart_last[su(s)] = c.begin_us;
        bend_last[su(s)] = c.end_us;
      }
    }
  }

  // Tied embedding table: declared on stage 0, last written by the final
  // stage's criterion backward — its accumulated gradient rides one extra
  // p2p hop home before stage 0's bucket can ring.
  double tied_arrival = -1.0;
  if (tied_param_ >= 0) {
    const auto [lo, hi] = params_.grad_byte_span(tied_param_);
    const double hop = group_.send_us(static_cast<int64_t>(hi - lo),
                                      group_.rank_of(0, pp_ - 1, 0), group_.rank_of(0, 0, 0),
                                      prof);
    tied_arrival = bend_last[su(pp_ - 1)] + hop;
    times.pp_comm_us += hop;
  }

  // --- each stage's DP lane through the bucket planner's model: its rings
  // serialize on the stage's own comm lane in ready order ---
  const bool sync_needed = cluster_.dp_size() > 1;
  const dist::RingModel ring = ring_model(dev_, params_, cluster_);
  std::vector<dist::LaneTrace> lanes;
  std::vector<dist::LaneResult> modeled;
  for (int s = 0; s < pp_; ++s) {
    lanes.push_back(stage_lane(s, bstart_last[su(s)], bend_last[su(s)], tied_arrival));
    modeled.push_back(dist::model_lane(lanes.back(), buckets_[su(s)], ring));
  }

  // Updates execute for real over every stage's buckets (the numerics need
  // the whole model updated; step_range is order-independent) through the
  // one update loop, with nothing to wait for on the device: the rings are
  // analytic. The loop's first wait still fires the failure-detection sync
  // point, before any update runs — the boundary where averaged gradients
  // materialize. The StepTimes lane tracks only stage 0, folding each stage-0
  // bucket's modeled ring and measured update through dist::UpdateLane —
  // pipelined exactly like the pp = 1 path.
  std::vector<dist::Landing> landings;
  for (int s = pp_ - 1; s >= 0; --s) {
    for (int b : modeled[su(s)].order) landings.push_back({buckets_[su(s)].buckets()[su(b)]});
  }
  const std::vector<std::pair<double, double>> windows =
      update_landings(session_, trainer, landings);
  dist::UpdateLane lane0;
  size_t next = 0;
  for (int s = pp_ - 1; s >= 0; --s) {
    std::vector<std::pair<int64_t, double>> updates;
    for (int b : modeled[su(s)].order) {
      const double dur = windows[next].second - windows[next].first;
      updates.emplace_back(landings[next++].bucket.bytes(), dur);
      if (s == 0) lane0.add(sync_needed ? modeled[0].done_us[su(b)] : kNever, dur);
    }
    lanes[su(s)].update = dist::UpdateCost::fit(updates, prof.launch_overhead_us);
  }
  const double t2 = bend_last[0];  // stage 0's compute lane ends its 1F1B step
  const double cursor = lane0.end_us(t2);
  double drain0 = 0, ring0_us = 0;
  if (sync_needed) {
    for (const dist::GradBucket& b : buckets_[0].buckets()) {
      drain0 = std::max(drain0, modeled[0].done_us[su(b.index)]);
      ring0_us += ring.ring_us(b.bytes()) * ring.link_factor;
    }
    times.sync_us = std::max(0.0, cursor - t2 - lane0.work_us);
    times.update_overlapped_us = std::max(0.0, drain0 - t2 - times.sync_us);
  }
  times.update_us = lane0.work_us + times.zero_grad_us;
  times.sync_overlapped_us = std::max(0.0, ring0_us - times.sync_us);
  // Detection bookkeeping for the analytic lanes: stage 0's exposed DP
  // wait is what a watchdog would observe at this sync boundary.
  if (dev_.fault_injector() != nullptr) {
    dev_.fault_injector()->note_exposed_wait(times.sync_us);
  }
  // A replayed step runs the frozen plans; only eager timings feed the next.
  if (!replayed) {
    session_.bucket_memo.lanes.clear();
    for (const dist::LaneTrace& lane : lanes) session_.bucket_memo.lanes.push_back(lane.relative());
  }

  // Every stage's rings: the dist.bucket.* counters of the pp = 1
  // scheduler, and a named span per ring on the rank's DP lane (tid 2).
  obs::MetricsRegistry* metrics = session_.metrics();
  const bool trace = session_.config().record_timeline;
  const double base = state_->trace_base_us;
  char name[64];
  double extent = std::max(sched.makespan_us, cursor);
  for (int s = 0; sync_needed && s < pp_; ++s) {
    for (const dist::GradBucket& b : buckets_[su(s)].buckets()) {
      const double us = ring.ring_us(b.bytes());
      const double done = modeled[su(s)].done_us[su(b.index)];
      extent = std::max(extent, done);
      if (metrics != nullptr) {
        metrics->counter("dist.bucket.flushes") += 1;
        metrics->counter("dist.bucket.wire_bytes") +=
            dist::wire_payload_bytes(b.bytes(), params_.dtype(), cluster_.wire_dtype);
        metrics->histogram("dist.bucket.allreduce_us").record(us);
      }
      if (trace) {
        std::snprintf(name, sizeof(name), "s%d.allreduce.b%d", s, b.index);
        dev_.timeline().record_span(group_.rank_of(0, s, 0), 2, name,
                                    base + done - us * ring.link_factor, base + done);
      }
    }
  }

  // --- named trace spans: the reconstructed per-rank 1F1B lanes. They run
  // on the solved schedule's time base, so they take lanes of their own
  // (chunks on tid 3, boundary sends on tid 4), clear of the device's
  // stream lanes (tids 0 and 1) that rank 0's stage spans use. ---
  if (!trace) return;
  simgpu::Timeline& tl = dev_.timeline();
  for (int s = 0; s < pp_; ++s) {
    const int pid = group_.rank_of(0, s, 0);
    if (!state_->trace_named) {
      tl.name_process(pid, "rank " + std::to_string(pid) + " (stage " + std::to_string(s) +
                               ")");
    }
    for (const dist::PipelineChunk& c : sched.lanes[su(s)].chunks) {
      std::snprintf(name, sizeof(name), "s%d.mb%d.%s", s, c.microbatch, c.forward ? "F" : "B");
      tl.record_span(pid, 3, name, base + c.begin_us, base + c.end_us);
      if (c.forward && s + 1 < pp_) {
        std::snprintf(name, sizeof(name), "s%d>s%d.mb%d.act", s, s + 1, c.microbatch);
        tl.record_span(pid, 4, name, base + c.end_us, base + c.end_us + sin.fwd_p2p_us[su(s)]);
      } else if (!c.forward && s > 0) {
        std::snprintf(name, sizeof(name), "s%d>s%d.mb%d.grad", s, s - 1, c.microbatch);
        tl.record_span(pid, 4, name, base + c.end_us,
                       base + c.end_us + sin.bwd_p2p_us[su(s - 1)]);
      }
    }
  }
  state_->trace_named = true;
  state_->trace_base_us = base + extent + 100.0;
}

}  // namespace ls2::core::detail
