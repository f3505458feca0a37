#include "core/train_step.h"

#include <cstdio>
#include <limits>

#include "dist/pipeline.h"
#include "memory/caching_allocator.h"
#include "simgpu/fault.h"

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
}  // namespace

PipelineStep::PipelineStep(Session& session, layers::ParamRegistry& params,
                           const layers::PpPlan& plan, const dist::ClusterConfig& cluster,
                           int64_t denominator)
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
      local_act_(ctx_.activation_allocator()),
      act_base_(session.activations().bytes_in_use()),
      fdur_(su(pp_), std::vector<double>(su(m_), 0.0)),
      bdur_(fdur_),
      fwd_bytes_(su(pp_ - 1), 0),
      bwd_bytes_(su(pp_ - 1), 0),
      ready_offset_(su(params.size()), -1.0) {
  LS2_CHECK(plan.stages == pp_) << "plan stages " << plan.stages << " vs pp " << pp_;
  // Each stage is a different rank, so each buckets only its own params.
  // Without DP the buckets are just optimizer ranges: one per contiguous run.
  const int64_t cap = cluster.dp_size() > 1
                          ? dist::effective_bucket_bytes(cluster, dev_.profile())
                          : std::numeric_limits<int64_t>::max();
  int64_t covered = 0;
  for (const std::vector<layers::ParamRange>& ranges : plan.stage_params) {
    buckets_.emplace_back(params, ranges, cap);
    covered += buckets_.back().total_bytes();
  }
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
    // Gradients are FINAL only on the last microbatch: record each param's
    // first notification as an offset into the chunk running at the time.
    params_.set_grad_ready_callback([this](const layers::ParamRange& range) {
      const double offset = dev_.clock_us() - chunk_begin_;
      for (int i = range.begin; i < range.end; ++i) {
        double& o = ready_offset_[su(i)];
        if (o < 0) o = offset;
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

void PipelineStep::sync_and_update(optim::Optimizer& trainer, StepTimes& times) {
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

  // --- per-stage buckets, each ready at its latest param's notification
  // (a param backward never reported is final when its stage's last
  // backward chunk ends), queued on the stage's lane in ready order ---
  struct Ring {
    int stage;
    const dist::GradBucket* bucket;
    double ready_us;
    double done_us;  ///< ring completion on the stage's comm lane
  };
  std::vector<Ring> rings;
  for (int s = pp_ - 1; s >= 0; --s) {
    const size_t first = rings.size();
    const dist::BucketPlan& plan = buckets_[su(s)];
    for (const dist::GradBucket& b : plan.buckets()) {
      double ready = 0;
      for (int i = b.param_begin; i < b.param_end; ++i) {
        const double o = ready_offset_[su(i)];
        ready = std::max(ready, o >= 0 ? bstart_last[su(s)] + o : bend_last[su(s)]);
      }
      if (s == 0 && tied_arrival >= 0 && plan.bucket_of(tied_param_) == b.index) {
        ready = std::max(ready, tied_arrival);
      }
      rings.push_back({s, &b, ready, 0.0});
    }
    std::stable_sort(rings.begin() + static_cast<std::ptrdiff_t>(first), rings.end(),
                     [](const Ring& a, const Ring& b) { return a.ready_us < b.ready_us; });
  }

  // Each stage's bucket rings serialize on its OWN comm lane. A stragglered
  // link stretches every analytic ring this step, exactly as
  // Device::enqueue_comm stretches real comm-stream transfers.
  const bool sync_needed = cluster_.dp_size() > 1;
  std::vector<double> comm_clock(su(pp_), 0.0);
  double ring0_us = 0;
  const double link_factor =
      dev_.fault_injector() != nullptr ? dev_.fault_injector()->comm_factor() : 1.0;
  if (sync_needed) {
    for (Ring& r : rings) {
      const int64_t wire =
          dist::wire_payload_bytes(r.bucket->bytes(), params_.dtype(), cluster_.wire_dtype);
      const double ring = dist::ring_allreduce_us(wire, cluster_, prof) * link_factor;
      double& lane = comm_clock[su(r.stage)];
      lane = std::max(lane, r.ready_us) + ring;
      r.done_us = lane;
      if (r.stage == 0) ring0_us += ring;
    }
  }

  // The DP sync is analytic (no device comm-stream calls), so the
  // failure-detection sync point fires explicitly here — the boundary
  // where averaged gradients materialize.
  dev_.at_sync_point("synchronize");

  // Updates execute for real over every stage's buckets (the numerics need
  // the whole model updated; step_range is order-independent), while the
  // StepTimes lane tracks only stage 0: wait for each stage-0 bucket's
  // ring, then its update — pipelined exactly like the pp = 1 path.
  trainer.begin_step();
  double cursor = bend_last[0];  // stage 0's compute lane ends its 1F1B step
  const double comm_drain0 = comm_clock[0];
  double update0_us = 0;
  {
    obs::SpanScope r(dev_, "update");
    for (const Ring& rg : rings) {
      const double u0 = dev_.clock_us();
      trainer.step_range(ctx_.kern, rg.bucket->byte_begin, rg.bucket->byte_end);
      const double dur = dev_.clock_us() - u0;
      if (rg.stage != 0) continue;
      if (sync_needed) {
        times.sync_us += std::max(0.0, rg.done_us - cursor);
        cursor = std::max(cursor, rg.done_us);
      }
      times.update_overlapped_us += std::max(0.0, std::min(cursor + dur, comm_drain0) - cursor);
      cursor += dur;
      update0_us += dur;
    }
  }
  trainer.end_step();
  times.update_us = update0_us + times.zero_grad_us;
  times.sync_overlapped_us = std::max(0.0, ring0_us - times.sync_us);
  // Detection bookkeeping for the analytic lanes: stage 0's exposed DP
  // wait is what a watchdog would observe at this sync boundary.
  if (dev_.fault_injector() != nullptr) {
    dev_.fault_injector()->note_exposed_wait(times.sync_us, dev_.clock_us());
  }

  // --- named trace spans: the reconstructed per-rank 1F1B lanes ---
  if (!session_.config().record_timeline) return;
  simgpu::Timeline& tl = dev_.timeline();
  const double base = state_->trace_base_us;
  char name[64];
  for (int s = 0; s < pp_; ++s) {
    const int pid = group_.rank_of(0, s, 0);
    if (!state_->trace_named) {
      tl.name_process(pid, "rank " + std::to_string(pid) + " (stage " + std::to_string(s) +
                               ")");
    }
    for (const dist::PipelineChunk& c : sched.lanes[su(s)].chunks) {
      std::snprintf(name, sizeof(name), "s%d.mb%d.%s", s, c.microbatch, c.forward ? "F" : "B");
      tl.record_span(pid, 0, name, base + c.begin_us, base + c.end_us);
      if (c.forward && s + 1 < pp_) {
        std::snprintf(name, sizeof(name), "s%d>s%d.mb%d.act", s, s + 1, c.microbatch);
        tl.record_span(pid, 1, name, base + c.end_us, base + c.end_us + sin.fwd_p2p_us[su(s)]);
      } else if (!c.forward && s > 0) {
        std::snprintf(name, sizeof(name), "s%d>s%d.mb%d.grad", s, s - 1, c.microbatch);
        tl.record_span(pid, 1, name, base + c.end_us,
                       base + c.end_us + sin.bwd_p2p_us[su(s - 1)]);
      }
    }
  }
  state_->trace_named = true;
  double extent = std::max(sched.makespan_us, cursor);
  for (double lane : comm_clock) extent = std::max(extent, lane);
  state_->trace_base_us = base + extent + 100.0;
}

}  // namespace ls2::core::detail
