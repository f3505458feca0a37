// One timed training step: the four stages of §II-B (forward, backward,
// synchronize, update), each attributed via device ranges — this is what
// regenerates Fig. 3 and every end-to-end speedup figure. It is the only
// training-step engine: data, tensor and pipeline parallelism are axes of
// the one schedule below (DESIGN.md §4, §9).
//
// The step is a three-lane pipeline. Compute (zero-grad, forward, backward,
// update) runs on the compute stream; gradient synchronization runs on the
// communication stream. With `cluster.overlap` (the default), the flat
// gradient buffer is partitioned into buckets in grad-ready order, planned
// from the previous step's measurement (dist/bucket.h), and each bucket's
// ring all-reduce is enqueued as soon as the layers owning it finish their
// backward — so most of the communication is hidden under backward. With
// `cluster.pipeline_update` (also the default), the third lane kicks in: as
// each bucket's all-reduce lands, that bucket's optimizer update
// (`Optimizer::step_range`) is launched on the compute stream immediately —
// update work that used to sit serially after the full comm drain now
// overlaps the remaining transfers, and only the tail bucket's wait +
// update stay fully exposed. Every schedule, these and their reference
// settings alike, ends in the one update loop (detail::update_landings):
// the schedule only chooses the landings it walks.
// `StepTimes::sync_us` is the exposed, critical-path wait; hidden comm is
// `sync_overlapped_us`, and the update time that ran while the comm stream
// was still draining is `update_overlapped_us` (informational — it is
// contained in `update_us`; the four stages always sum to the step total).
//
// Pipeline parallelism (`cluster.pipeline_parallel` = pp > 1) runs the same
// step over `cluster.microbatches` equal dim-0 slices of the batch. Each
// microbatch runs a full forward + backward on the session context, and
// gradients accumulate in ascending order — bitwise the full-batch
// reduction. The simulator executes every stage on the one session device,
// so its clock is the sum of all stages' chunks, not rank 0's clock. The
// model marks stage boundaries (LayerContext::pp_enter), and
// detail::PipelineStep times each chunk, reconstructs the 1F1B schedule
// (dist::solve_1f1b) and reports rank 0's lane. Each stage's gradients ring
// on that stage's own analytic DP lane, one planned dist::BucketPlan per
// stage; the update loop runs every stage's buckets, and stage 0's bucket
// waits and updates are pipelined into sync_us / update_us.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "dist/allreduce.h"
#include "dist/bucket.h"
#include "dist/process_group.h"
#include "layers/pp.h"
#include "obs/span.h"
#include "optim/optimizer.h"
#include "simgpu/fault.h"

namespace ls2::core {

struct StepTimes {
  double forward_us = 0;
  double backward_us = 0;
  double sync_us = 0;    ///< EXPOSED synchronize time (critical path)
  double update_us = 0;  ///< trainer step + gradient zeroing
  /// Informational sub-component of update_us: zeroing the gradient buffers
  /// (its own "zero_grad" device range; charged to the update stage so the
  /// four stages still sum to the step total).
  double zero_grad_us = 0;
  /// Comm time hidden under backward or under per-bucket updates (runs
  /// concurrently; not in total_us).
  double sync_overlapped_us = 0;
  /// Informational sub-component of update_us: optimizer time that ran while
  /// the comm stream was still draining later buckets (the pipelined-update
  /// lane; 0 without cluster.pipeline_update).
  double update_overlapped_us = 0;
  /// What one blocking ring over all gradients would have cost.
  double sync_blocking_us = 0;
  /// Modeled gradient payload this rank put on the ring, at the wire dtype
  /// (ClusterConfig::wire_dtype; kF16 halves the FP32-wire default).
  int64_t wire_bytes = 0;
  /// This step replayed the session's captured StepGraph: the
  /// zero-grad/forward/backward region ran as ONE graph launch with no
  /// per-kernel launch gaps (SessionConfig::graph_capture).
  bool replayed = false;
  // --- tensor parallelism (DESIGN §7; 0 when cluster.tensor_parallel == 1).
  // TP collectives run inside forward/backward on the comm stream; their
  // exposed waits are already contained in forward_us/backward_us.
  double tp_comm_us = 0;     ///< TP collective time enqueued this step
  double tp_exposed_us = 0;  ///< portion the compute stream waited on
  int64_t tp_bytes = 0;      ///< logical TP payload bytes this step
  // --- pipeline parallelism (DESIGN §9; 0 when cluster.pipeline_parallel
  // == 1). All three describe rank 0's (stage 0's) 1F1B lane: forward_us /
  // backward_us above hold only stage 0's compute chunks, so the lane's
  // idle time is reported separately and total_us() stays rank 0's wall
  // clock.
  double pp_bubble_us = 0;   ///< 1F1B schedule idle on the rank-0 lane
  double pp_comm_us = 0;     ///< boundary p2p time touching rank 0
  double pp_exposed_us = 0;  ///< p2p waits on the rank-0 critical path
  double total_us() const {
    return forward_us + backward_us + sync_us + update_us + pp_bubble_us +
           pp_exposed_us;
  }
};

/// Zero all gradients with charged device kernels: one launch over the flat
/// workspace under LightSeq2, one per tensor for the baselines.
inline void zero_grads_charged(Session& session, layers::ParamRegistry& params) {
  LS2_CHECK(params.materialized()) << "zero_grads_charged before materialize";
  auto& dev = session.device();
  if (params.contiguous()) {
    Tensor flat = params.flat_grads();
    simgpu::KernelDesc d;
    d.name = "ls2.zero_grad";
    d.bytes_written = static_cast<int64_t>(flat.bytes());
    d.mem_efficiency = 0.9;
    dev.launch(d, [&] { flat.zero_(); });
    return;
  }
  for (int i = 0; i < params.size(); ++i) {
    Tensor g = params.grad({i});
    simgpu::KernelDesc d;
    d.name = "torch.zero_grad";
    d.bytes_written = static_cast<int64_t>(g.bytes());
    d.mem_efficiency = 0.7;
    dev.launch(d, [&] { g.zero_(); });
  }
}

namespace detail {

// --- microbatch plumbing ---------------------------------------------------
// The four batch structs are plain bags of dim-0-major tensors; slicing a
// microbatch is a set of dim-0 views (no copies). Distinguishing fields:
// MtBatch has src_ids, ImageBatch has patches, LmBatch has targets,
// ClsBatch has lens+labels.

template <typename BatchT>
int64_t batch_rows(const BatchT& b) {
  if constexpr (requires { b.src_ids; }) {
    return b.src_ids.shape()[0];
  } else if constexpr (requires { b.patches; }) {
    return b.patches.shape()[0];
  } else {
    return b.ids.shape()[0];
  }
}

/// Microbatch j of m: rows [j * B/m, (j+1) * B/m) of every batch tensor.
template <typename BatchT>
BatchT microbatch(const BatchT& b, int j, int m) {
  const int64_t rows = batch_rows(b) / m;
  const int64_t lo = j * rows, hi = (j + 1) * rows;
  BatchT s = b;
  if constexpr (requires { b.src_ids; }) {  // models::MtBatch
    s.src_ids = b.src_ids.slice(lo, hi);
    s.tgt_in = b.tgt_in.slice(lo, hi);
    s.tgt_out = b.tgt_out.slice(lo, hi);
    s.src_lens = b.src_lens.slice(lo, hi);
    s.tgt_lens = b.tgt_lens.slice(lo, hi);
  } else if constexpr (requires { b.patches; }) {  // models::ImageBatch
    s.patches = b.patches.slice(lo, hi);
    s.labels = b.labels.slice(lo, hi);
  } else if constexpr (requires { b.targets; }) {  // models::LmBatch
    s.ids = b.ids.slice(lo, hi);
    s.targets = b.targets.slice(lo, hi);
  } else {  // models::ClsBatch
    s.ids = b.ids.slice(lo, hi);
    s.lens = b.lens.slice(lo, hi);
    s.labels = b.labels.slice(lo, hi);
  }
  return s;
}

/// The GLOBAL loss denominator a microbatch's criterion backward must use:
/// non-pad target tokens for token criteria (counted exactly as
/// CriterionLayer::forward counts them), the batch size for classification.
template <typename BatchT>
int64_t global_denominator(const BatchT& b, int32_t pad_id, bool execute) {
  auto count_valid = [&](const Tensor& t) -> int64_t {
    if (!execute) return t.numel();  // timing-only mode: shape bookkeeping
    int64_t valid = 0;
    for (float v : t.to_vector()) {
      if (static_cast<int32_t>(v) != pad_id) ++valid;
    }
    return valid;
  };
  if constexpr (requires { b.tgt_out; }) {
    return count_valid(b.tgt_out);
  } else if constexpr (requires { b.targets; }) {
    return count_valid(b.targets);
  } else {
    return batch_rows(b);
  }
}

struct PpState;  // cross-step state, owned (type-erased) by Session::pp_state

/// This step's gradient buckets, one plan per DP lane (`lanes`: the whole
/// registry at pp = 1, each stage's params under PP). Replaying the
/// session's step graph returns the plans its capture froze, because the
/// rings are nodes of the graph; otherwise dist::plan_buckets plans each
/// lane from the session's latest measurement, with the comm stream busy
/// for `comm_busy_us` past the step's start. A capture freezes what it
/// returns.
std::vector<dist::BucketPlan> plan_step_buckets(
    Session& session, const layers::ParamRegistry& params,
    const std::vector<std::vector<layers::ParamRange>>& lanes,
    const dist::ClusterConfig& cluster, GraphAction action, double comm_busy_us);

/// The update stage of every step: for each landing in order, wait on the
/// comm stream until its gradients are final (Device::wait_comm_until, the
/// exposed sync), then run the optimizer over its bytes in an "update"
/// span. Returns each update's device-clock window.
std::vector<std::pair<double, double>> update_landings(
    Session& session, optim::Optimizer& trainer, const std::vector<dist::Landing>& landings);

/// The pipeline-parallel part of one train_step (pp > 1; train_step.cc).
/// While alive it owns the LayerContext PP hooks (stage-boundary timing,
/// the per-stage activation allocator swap, the 1F1B residency stand-ins)
/// and, during the last microbatch, the registry's grad-ready callback.
class PipelineStep {
 public:
  /// `buckets`: one plan per stage, over its PpPlan::stage_params.
  PipelineStep(Session& session, layers::ParamRegistry& params,
               const layers::PpPlan& plan, const dist::ClusterConfig& cluster,
               std::vector<dist::BucketPlan> buckets, int64_t denominator);
  ~PipelineStep();
  PipelineStep(const PipelineStep&) = delete;
  PipelineStep& operator=(const PipelineStep&) = delete;

  /// Gradient bytes stage 0 owns: rank 0's share of the DP ring.
  int64_t stage0_bytes() const { return buckets_.front().total_bytes(); }
  int64_t denominator() const { return denominator_; }

  /// Point the kernels and the criterion at microbatch j.
  void begin_microbatch(int j);
  /// Close the open stage chunk at the device clock (after each forward
  /// and each backward).
  void close_chunk();
  /// Everything after the microbatch loop. It reconstructs the 1F1B
  /// schedule and sets rank 0's forward/backward_us and pp_* times. It
  /// rings each stage's buckets on that stage's lane through the bucket
  /// planner's model and runs the optimizer per bucket, setting sync and
  /// update times from stage 0. It keeps each stage's lane as the session's
  /// measurement unless the step replayed, and records the per-rank trace
  /// lanes.
  void sync_and_update(optim::Optimizer& trainer, StepTimes& times, bool replayed);

 private:
  void enter(int stage, bool forward, int64_t payload_bytes);
  /// Stage s's DP lane this step: its units ready at their reports on the
  /// stage's last backward chunk [bstart, bend), the tied table no earlier
  /// than `tied_arrival`.
  dist::LaneTrace stage_lane(int s, double bstart, double bend, double tied_arrival) const;

  Session& session_;
  simgpu::Device& dev_;
  layers::LayerContext& ctx_;
  layers::ParamRegistry& params_;
  dist::ClusterConfig cluster_;
  /// Rank math and p2p costs are pure functions of the cluster, so a local
  /// group serves even when the caller installed none (pp without tp).
  dist::ProcessGroup group_;
  std::shared_ptr<PpState> state_;
  int pp_, m_;
  int64_t denominator_;
  int tied_param_;  ///< the tied table's declaration index, -1 when untied
  std::vector<dist::BucketPlan> buckets_;  ///< one plan per stage
  std::vector<std::vector<layers::ParamRange>> stage_params_;
  layers::PpHooks hooks_;
  double loss_carry_ = 0, metric_carry_ = 0;
  BufferAllocator* local_act_;
  int64_t act_base_;
  std::vector<Tensor> residency_;  ///< stand-ins for in-flight 1F1B activations
  // Measured chunk durations [stage][microbatch] and boundary payloads.
  std::vector<std::vector<double>> fdur_, bdur_;
  std::vector<int64_t> fwd_bytes_, bwd_bytes_;
  int cur_stage_ = 0, cur_mb_ = 0;
  bool cur_fwd_ = true, chunk_open_ = false;
  double chunk_begin_ = 0;
  /// During the last microbatch: per param, the grad-ready report that
  /// first named it (-1: none), and per report its offset into the chunk
  /// running at the time.
  std::vector<int> ready_report_;
  std::vector<double> report_offset_;
};

}  // namespace detail

/// Run one training step on this device; other replicas are assumed
/// identical (their compute time equals ours; the all-reduce time comes
/// from the ring model). Returns per-stage times and the forward result
/// (loss/accuracy struct of the model).
template <typename ModelT, typename BatchT>
auto train_step(Session& session, ModelT& model, const BatchT& batch,
                optim::Optimizer& trainer, const dist::ClusterConfig& cluster = {})
    -> std::pair<StepTimes, decltype(model.forward(session.ctx(), batch))> {
  cluster.validate();
  auto& dev = session.device();
  auto& ctx = session.ctx();
  auto& params = model.params();
  const int m = cluster.microbatches;  // 1 unless pipeline_parallel > 1
  StepTimes times;
  // Telemetry envelope: the whole-step trace span. attribute=false — it
  // must NOT become a device range, or it would absorb the attribution of
  // the stage ranges below (innermost wins) and change the Fig. 3 sums.
  obs::SpanScope step_span(dev, "step", /*pid=*/0, /*tid=*/0,
                           /*attribute=*/false);
  // Hybrid data x model parallel composition: the model's TP collectives
  // charge through the session context's ProcessGroup, and the gradient
  // ring below runs over the dp_size() replicas of this shard. The three
  // TP settings (cluster, session ProcessGroup, model config) must agree
  // in BOTH directions — a half-wired setup would silently mis-account
  // the very numbers this step reports.
  dist::ProcessGroup* tp_group = ctx.tp_group;
  LS2_CHECK((tp_group != nullptr ? tp_group->tp_size() : 1) == cluster.tensor_parallel)
      << "cluster.tensor_parallel = " << cluster.tensor_parallel
      << " but the session's ProcessGroup is "
      << (tp_group ? std::to_string(tp_group->tp_size()) : std::string("absent"))
      << " — install a matching group as session.ctx().tp_group";
  if constexpr (requires { model.config().tp.size; }) {
    LS2_CHECK(model.config().tp.size == cluster.tensor_parallel)
        << "model was built with tp.size = " << model.config().tp.size
        << " but cluster.tensor_parallel = " << cluster.tensor_parallel;
  }
  const dist::ProcessGroup::Stats tp0 =
      tp_group ? tp_group->stats() : dist::ProcessGroup::Stats{};

  // Per-step prologue: advances the RNG step offset (the per-step graph
  // parameter) and picks eager / capture / replay for the static region.
  const GraphAction graph_action = session.begin_step();
  const double tz = dev.clock_us();

  // Pipeline parallelism: the model's stage plan plus this step's 1F1B
  // state. Absent with pp == 1, where the step runs the whole batch once
  // with no PP hooks installed.
  std::optional<detail::PipelineStep> pipe;
  if (cluster.pipeline_parallel > 1) {
    if constexpr (requires { model.pp_configure(1); }) {
      const int64_t rows = detail::batch_rows(batch);
      LS2_CHECK(rows % m == 0 && rows >= m)
          << "batch size " << rows << " must split into " << m << " equal microbatches";
      int32_t pad_id = 0;
      if constexpr (requires { model.config().pad_id; }) pad_id = model.config().pad_id;
      const layers::PpPlan& plan = model.pp_configure(cluster.pipeline_parallel);
      pipe.emplace(session, params, plan, cluster,
                   detail::plan_step_buckets(session, params, plan.stage_params, cluster,
                                             graph_action, /*comm_busy_us=*/0),
                   detail::global_denominator(batch, pad_id,
                                              dev.mode() == simgpu::ExecMode::kExecute));
    } else {
      LS2_CHECK(false) << "model does not implement pp_configure — pipeline "
                          "parallelism needs a stage partition";
    }
  }

  const bool sync_needed = cluster.dp_size() > 1;
  const bool overlap = !pipe && sync_needed && cluster.overlap;
  const bool pipeline = overlap && cluster.pipeline_update;
  // Rank 0's share of the gradient ring: the whole registry, or stage 0's
  // parameters under PP (every stage rings its own).
  const int64_t grad_bytes =
      pipe ? pipe->stage0_bytes() : static_cast<int64_t>(params.flat_grad_bytes());
  const int64_t ring_bytes =
      sync_needed ? dist::wire_payload_bytes(grad_bytes, params.dtype(), cluster.wire_dtype)
                  : 0;
  times.wire_bytes = ring_bytes;
  times.sync_blocking_us =
      sync_needed ? dist::ring_allreduce_us(ring_bytes, cluster, dev.profile()) : 0.0;

  // The static region — zero-grad, forward, backward, and the comm enqueues
  // fired from backward — is what gets captured into / replayed from the
  // step graph (a GraphRegion, which abandons a half-open capture/replay if
  // the step unwinds, e.g. on OOM). Everything after backward (bucket
  // waits, optimizer ranges, scaler decisions) is dynamic and stays outside
  // the graph. Under PP the graph wraps all m microbatches: remote-stage
  // allocations charge the remote device, so the capture sees only arena
  // traffic, and microbatch RNG offsets are baked into launch closures by
  // value.
  std::optional<GraphRegion> graph;

  // Stage 0 — zero gradients ONCE (microbatch gradients accumulate on top;
  // own device range, charged to update below). The graph region opens
  // INSIDE the zero_grad range so the one-time graph-launch overhead of a
  // replay is attributed there — both the StepTimes stage windows and the
  // per-range (Fig. 3) sums still cover the whole step.
  {
    obs::SpanScope r(dev, "zero_grad");
    graph.emplace(session, graph_action);
    times.replayed = graph_action == GraphAction::kReplay;
    zero_grads_charged(session, params);
  }
  times.zero_grad_us = dev.clock_us() - tz;

  // The scheduler owns the registry's grad-ready callback for this step and
  // enqueues each completed bucket's all-reduce on the comm stream, its
  // buckets planned from the last step's measurement and the comm stream's
  // backlog now.
  std::optional<dist::OverlapScheduler> scheduler;
  std::optional<dist::LaneTrace> measured;  // this step, for the next plan
  if (overlap) {
    std::vector<dist::BucketPlan> plan =
        detail::plan_step_buckets(session, params, {{{0, params.size()}}}, cluster,
                                  graph_action, dev.comm_clock_us() - tz);
    scheduler.emplace(params, dev, cluster, std::move(plan.front()), session.metrics());
  }

  // Stages 1+2 — forward and backward, per microbatch in ascending order.
  // The criterion multiplies the trainer's expected loss scale into the
  // backward seed (mixed-precision discipline); the trainer divides it back
  // out in the update. Bucket all-reduces launch concurrently as layers
  // report their gradients final.
  ctx.loss_scale = trainer.loss_scale();
  decltype(model.forward(session.ctx(), batch)) result{};
  for (int j = 0; j < m; ++j) {
    if (pipe) pipe->begin_microbatch(j);
    const BatchT mb = pipe ? detail::microbatch(batch, j, m) : batch;
    const double f0 = dev.clock_us();
    {
      obs::SpanScope r(dev, "forward");
      result = model.forward(ctx, mb);
      if (pipe) pipe->close_chunk();
    }
    const double f1 = dev.clock_us();
    {
      obs::SpanScope r(dev, "backward");
      model.backward(ctx);
      if (pipe) pipe->close_chunk();
    }
    // Under PP these device-clock sums cover every stage; sync_and_update
    // replaces them with rank 0's lane.
    times.forward_us += f1 - f0;
    times.backward_us += dev.clock_us() - f1;
  }
  const double t2 = dev.clock_us();
  if constexpr (requires { result.tokens; }) {
    if (pipe) result.tokens = pipe->denominator();  // the batch's count, not the last slice's
  }

  // Close the static region: deposit the captured graph (or its poison
  // diagnostic) with the session, or finish consuming the replayed one.
  graph->close();

  // Stages 3+4 — synchronize and update. Every schedule hands the one
  // update loop (detail::update_landings) its landings: gradient byte
  // ranges, each with the time its replica-averaged gradients are final.
  if (pipe) {
    // Rank 0's lane of the reconstructed 1F1B schedule.
    pipe->sync_and_update(trainer, times, times.replayed);
  } else {
    const dist::GradBucket whole{0, 0, params.size(), 0, params.flat_grad_bytes()};
    std::vector<dist::Landing> landings;
    {
      obs::SpanScope r(dev, "synchronize");
      if (scheduler) {
        scheduler->finish();  // tail buckets: ready only now that backward ended
        measured = scheduler->trace(tz);
        measured->pipelined = pipeline;
        // Pipelined, each bucket lands as its ring completes; otherwise the
        // whole buffer lands once the comm stream drains.
        landings = pipeline ? scheduler->landings()
                            : std::vector<dist::Landing>{{whole, dev.comm_clock_us()}};
      } else {
        // The blocking ring (and the DP=1 no-op) never touches the comm
        // stream, so the failure-detection sync point fires explicitly. A
        // stragglered link stretches the ring, and the watchdog sees it as
        // an exposed wait. The whole buffer lands once the ring is done.
        dev.at_sync_point("synchronize");
        if (sync_needed) {
          simgpu::FaultInjector* faults = dev.fault_injector();
          const double ring_us =
              times.sync_blocking_us * (faults != nullptr ? faults->comm_factor() : 1.0);
          dev.advance(ring_us, /*busy=*/true, "synchronize");
          if (faults != nullptr) faults->note_exposed_wait(ring_us);
        }
        landings = {{whole}};
      }
    }
    const std::vector<std::pair<double, double>> windows =
        detail::update_landings(session, trainer, landings);
    double update_work_us = 0;
    std::vector<std::pair<int64_t, double>> updates;  // (bytes, us)
    for (size_t i = 0; i < landings.size(); ++i) {
      const auto [u0, u1] = windows[i];
      update_work_us += u1 - u0;
      updates.emplace_back(landings[i].bucket.bytes(), u1 - u0);
      // Landings come in completion order: update time before the last one
      // ran while the comm stream was still draining later buckets.
      times.update_overlapped_us += std::max(0.0, std::min(u1, landings.back().done_us) - u0);
    }
    double enqueued_us = 0;
    if (scheduler) {
      dev.sync_comm("synchronize");  // residual drain (normally zero)
      enqueued_us = scheduler->enqueued_us();
      scheduler.reset();
      measured->update = dist::UpdateCost::fit(updates, dev.profile().launch_overhead_us);
      measured->update_us = update_work_us;
    }
    times.sync_us = (dev.clock_us() - t2) - update_work_us;
    times.sync_overlapped_us = std::max(0.0, enqueued_us - times.sync_us);
    times.update_us = update_work_us + times.zero_grad_us;
  }
  // A replayed step runs the frozen plan; only eager timings feed the next.
  if (measured && graph_action != GraphAction::kReplay) {
    session.bucket_memo.lanes = {std::move(*measured)};
  }
  // TP epilogue: mirror the update onto the simulated peer shards (host
  // bookkeeping on a private device — charges nothing here; a no-op when
  // TP is off or peers are not simulated).
  if constexpr (requires { model.tp_finish_step(trainer); }) {
    model.tp_finish_step(trainer);
  }
  pipe.reset();  // PP hooks off; residency stand-ins freed before the arena rewinds
  session.end_step();

  if (tp_group != nullptr) {
    const dist::ProcessGroup::Stats tp1 = tp_group->stats();
    times.tp_comm_us = tp1.comm_us - tp0.comm_us;
    times.tp_exposed_us = tp1.exposed_us - tp0.exposed_us;
    times.tp_bytes = tp1.bytes - tp0.bytes;
  }
  if (obs::MetricsRegistry* reg = session.metrics()) {
    reg->counter("train.steps") += 1;
    if (times.replayed) reg->counter("train.replayed_steps") += 1;
    reg->counter("train.wire_bytes") += times.wire_bytes;
    reg->histogram("train.step_us").record(times.total_us());
    reg->histogram("train.forward_us").record(times.forward_us);
    reg->histogram("train.backward_us").record(times.backward_us);
    reg->histogram("train.sync_us").record(times.sync_us);
    reg->histogram("train.update_us").record(times.update_us);
    reg->gauge("train.sync_overlapped_us") = times.sync_overlapped_us;
    reg->gauge("train.sync_blocking_us") = times.sync_blocking_us;
    if (cluster.pipeline_parallel > 1) {
      reg->histogram("train.pp.bubble_us").record(times.pp_bubble_us);
      reg->gauge("train.pp.comm_us") = times.pp_comm_us;
      reg->gauge("train.pp.exposed_us") = times.pp_exposed_us;
    }
  }
  return {times, result};
}

}  // namespace ls2::core
