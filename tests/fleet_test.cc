// The serving fleet (DESIGN.md §11). The contract, in order of importance:
//
//  1. TOKEN-EXACT FAILOVER — killing one of three replicas mid-decode loses
//     no request and changes no answer: evacuated residents re-dispatch with
//     prompt + generated prefix, the counter-RNG re-prefill rebuilds their
//     KV bitwise (execute mode, FP32 greedy), and every served stream equals
//     the unfaulted single-replica run's.
//  2. ZERO-DOWNTIME RELOAD — a rolling parameter reload drains replicas one
//     at a time and drops nothing.
//  3. TAIL RESCUE — hedged dispatch beats plain JSQ p99 under an injected
//     straggler replica.
//  4. HONEST STATS — a re-dispatched request keeps its ORIGINAL arrival, so
//     queue-wait / latency percentiles are never flattered by failure
//     (satellite: Request::enqueue_us vs arrival_us).
//  5. SHEDDING EDGE CASES — exact queue-bound boundary, deadline == first
//     admission, shed-vs-deadline interplay under a burst.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/checkpoint.h"
#include "infer/batcher.h"
#include "infer/fleet.h"
#include "simgpu/fault.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;
using simgpu::FaultPlan;

models::Gpt2Config fleet_gpt2() {
  models::Gpt2Config cfg;
  cfg.vocab = 512;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.layers = 4;
  cfg.max_len = 256;
  return cfg;
}

infer::FleetConfig fleet_config(int replicas, simgpu::ExecMode mode,
                                DType dt = DType::kF16) {
  infer::FleetConfig fc;
  fc.replicas = replicas;
  fc.model = fleet_gpt2();
  fc.model_seed = 31;
  fc.slots = 4;
  fc.max_len = 144;
  fc.session.mode = mode;
  fc.session.dtype = dt;
  return fc;
}

/// The unfaulted single-replica reference: same model seed, same engine
/// knobs — what the fleet's merged token streams must reproduce.
infer::ServeReport single_replica_baseline(const infer::FleetConfig& fc,
                                           const std::vector<infer::Request>& reqs) {
  SessionConfig sc = fc.session;
  sc.arena_bytes = infer::serve_capacity_scan(fc.model, sc.dtype, fc.slots,
                                              fc.max_len, fc.max_len - 1);
  Session s(sc);
  models::Gpt2 model(fc.model, sc.system, sc.dtype, fc.model_seed, s.param_alloc());
  infer::KvCache cache(model.kv_cache_config(fc.slots, fc.max_len), s.param_alloc());
  infer::ContinuousBatcher engine(s, model, cache, fc.serve);
  return engine.serve(reqs);
}

// ---------------------------------------------------------------------------
// 1. Token-exact failover
// ---------------------------------------------------------------------------

TEST(FleetTest, KillOneOfThreeMidDecodeIsTokenExact) {
  // Execute mode, FP32, greedy: tokens are a pure function of (params,
  // prompt), and a continuation prefill rebuilds the KV bitwise — the
  // property that makes re-dispatch invisible in the output.
  const auto reqs = infer::poisson_requests(12, /*rate=*/50000.0, 3, 7, 5, 10,
                                            fleet_gpt2().vocab, 83);
  infer::FleetConfig fc = fleet_config(3, simgpu::ExecMode::kExecute, DType::kF32);
  const infer::ServeReport base = single_replica_baseline(fc, reqs);
  ASSERT_EQ(base.served, static_cast<int64_t>(reqs.size()));

  // Replica 1 dies at its third decode step, mid-burst, residents and all.
  fc.fault_plans.resize(3);
  fc.fault_plans[1].add(FaultPlan::device_loss(/*step=*/2, /*rank=*/0));
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);

  EXPECT_EQ(rep.deaths, 1);
  EXPECT_EQ(fleet.live_replicas(), 2);
  EXPECT_GE(rep.redispatches, 1) << "the dead replica's residents must move";
  EXPECT_EQ(rep.lost, 0);
  EXPECT_EQ(rep.shed, 0);
  ASSERT_EQ(rep.served, static_cast<int64_t>(reqs.size()));

  for (const infer::RequestStats& st : rep.requests) {
    const infer::RequestStats* ref = nullptr;
    for (const infer::RequestStats& b : base.requests)
      if (b.id == st.id) ref = &b;
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(st.tokens, ref->tokens)
        << "request " << st.id << " must be token-identical to the unfaulted run";
  }
}

TEST(FleetTest, RedispatchedLatencyRunsFromOriginalArrival) {
  const auto reqs = infer::poisson_requests(12, /*rate=*/50000.0, 3, 7, 5, 10,
                                            fleet_gpt2().vocab, 83);
  infer::FleetConfig fc = fleet_config(3, simgpu::ExecMode::kModelOnly);
  fc.fault_plans.resize(3);
  fc.fault_plans[1].add(FaultPlan::device_loss(2, 0));
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);
  ASSERT_EQ(rep.deaths, 1);
  for (size_t i = 0; i < rep.requests.size(); ++i) {
    const infer::RequestStats& st = rep.requests[i];
    EXPECT_DOUBLE_EQ(st.arrival_us, reqs[static_cast<size_t>(st.id)].arrival_us)
        << "re-dispatch must not rewrite the arrival time";
    EXPECT_GT(st.done_us, st.arrival_us);
  }
}

// Replicas capture their graph pools at start-up, before fleet time 0:
// every step replays, every request is delayed by the start-up alike, and
// the capture is in no request's latency — the first request queues
// exactly as long as in an eager fleet.
TEST(FleetTest, StartupCaptureIsOffTheRequestTimeline) {
  const auto reqs = infer::poisson_requests(8, /*rate=*/2000.0, 3, 7, 5, 10,
                                            fleet_gpt2().vocab, 41);
  infer::FleetConfig fc = fleet_config(2, simgpu::ExecMode::kModelOnly);
  infer::Fleet eager(fc);
  const infer::FleetReport e = eager.run(reqs);
  fc.session.graph_capture = true;
  infer::Fleet replayed(fc);
  const infer::FleetReport r = replayed.run(reqs);
  ASSERT_EQ(r.served, static_cast<int64_t>(reqs.size()));
  ASSERT_EQ(e.served, static_cast<int64_t>(reqs.size()));
  EXPECT_GT(r.decode_steps, 0);
  EXPECT_EQ(r.replayed_steps, r.decode_steps) << "replicas capture at start-up";
  const double delay = r.requests[0].arrival_us - reqs[0].arrival_us;
  EXPECT_GT(delay, 0) << "fleet time starts when the start-up ends";
  for (size_t i = 0; i < reqs.size(); ++i)
    EXPECT_NEAR(r.requests[i].arrival_us - reqs[i].arrival_us, delay, 1e-6);
  EXPECT_NEAR(r.requests[0].queue_us(), e.requests[0].queue_us(), 1e-6)
      << "start-up capture lands in no request's latency";
}

// ---------------------------------------------------------------------------
// 2. Rolling reload
// ---------------------------------------------------------------------------

TEST(FleetTest, RollingReloadDropsNothing) {
  const auto reqs = infer::poisson_requests(48, /*rate=*/12000.0, 4, 8, 8, 24,
                                            fleet_gpt2().vocab, 19);
  infer::FleetConfig fc = fleet_config(3, simgpu::ExecMode::kModelOnly);
  // Trigger the roll while the fleet is mid-burst.
  fc.reload_at_us = reqs[reqs.size() / 3].arrival_us;
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);

  EXPECT_EQ(rep.reloads, 3) << "every replica must have been rolled";
  EXPECT_EQ(rep.deaths, 0);
  EXPECT_EQ(rep.lost, 0);
  EXPECT_EQ(rep.shed, 0);
  EXPECT_EQ(rep.served, static_cast<int64_t>(reqs.size()));
}

TEST(FleetTest, ParamSnapshotRestoresBitwiseIntoADifferentWorld) {
  const models::Gpt2Config mc = fleet_gpt2();
  SessionConfig sc;
  sc.dtype = DType::kF32;
  Session a(sc);
  models::Gpt2 model_a(mc, System::kLightSeq2, sc.dtype, /*seed=*/7, a.param_alloc());
  const core::CheckpointSnapshot snap =
      core::AsyncCheckpointer::snapshot_params(a, model_a.params());
  ASSERT_TRUE(snap.valid());
  ASSERT_GT(snap.ready_us, 0) << "the host drain is never free";

  Session b(sc);
  models::Gpt2 model_b(mc, System::kLightSeq2, sc.dtype, /*seed=*/99, b.param_alloc());
  core::AsyncCheckpointer::restore_params(snap, b, model_b.params());

  auto bytes = [](const layers::ParamRegistry& params) {
    std::vector<unsigned char> out;
    params.for_each([&](const std::string&, Tensor v, Tensor) {
      if (!v.defined() || !v.backs_real_memory()) return;
      const unsigned char* p = static_cast<const unsigned char*>(v.raw());
      out.insert(out.end(), p, p + v.bytes());
    });
    return out;
  };
  EXPECT_EQ(bytes(model_a.params()), bytes(model_b.params()))
      << "restore_params must be bitwise";
}

// ---------------------------------------------------------------------------
// 3. Dispatch policies & hedging
// ---------------------------------------------------------------------------

TEST(FleetTest, PoliciesServeEverythingAndSpreadLoad) {
  const auto reqs = infer::poisson_requests(36, /*rate=*/15000.0, 4, 8, 6, 16,
                                            fleet_gpt2().vocab, 43);
  infer::FleetConfig fc = fleet_config(3, simgpu::ExecMode::kModelOnly);
  fc.policy = infer::DispatchPolicy::kJoinShortestQueue;
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);
  EXPECT_EQ(rep.served, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(rep.lost, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(rep.replica_reports[static_cast<size_t>(i)].prefills, 0)
        << "replica " << i << " must get a share of the burst";
  }
}

TEST(FleetTest, HedgingCutsTheTailUnderAStragglerReplica) {
  // A model big enough that decode EXEC time dominates launch overhead —
  // otherwise a kernel-spike "straggler" barely slows its replica and there
  // is no tail to rescue. Model-only mode, so size is free.
  models::Gpt2Config mc = fleet_gpt2();
  mc.hidden = 256;
  mc.ffn_dim = 1024;
  mc.layers = 6;
  const auto reqs = infer::poisson_requests(48, /*rate=*/4000.0, 4, 8, 8, 20,
                                            mc.vocab, 71);
  // Replica 0 straggles (every kernel 30x) for its first 2000 decode steps.
  auto make = [&](infer::DispatchPolicy policy) {
    infer::FleetConfig fc = fleet_config(3, simgpu::ExecMode::kModelOnly);
    fc.model = mc;
    fc.policy = policy;
    // Floor near the healthy median: only genuinely stuck requests hedge,
    // so the duplicates rescue the tail without inflating the median.
    fc.hedge_min_us = 12000.0;
    fc.fault_plans.resize(3);
    fc.fault_plans[0].kernel_spike_window(0, 2000, /*site=*/"", /*factor=*/30.0);
    return fc;
  };
  infer::Fleet jsq(make(infer::DispatchPolicy::kJoinShortestQueue));
  const infer::FleetReport r_jsq = jsq.run(reqs);
  infer::Fleet hedged(make(infer::DispatchPolicy::kHedged));
  const infer::FleetReport r_hedged = hedged.run(reqs);

  ASSERT_EQ(r_jsq.served, static_cast<int64_t>(reqs.size()));
  ASSERT_EQ(r_hedged.served, static_cast<int64_t>(reqs.size()));
  EXPECT_GT(r_hedged.hedges_fired, 0) << "the straggler must trip the hedge";
  EXPECT_GT(r_hedged.hedge_wins, 0)
      << "some duplicate dispatched to a healthy replica must finish first";
  EXPECT_LT(r_hedged.p99_latency_us, r_jsq.p99_latency_us)
      << "hedging exists to rescue the tail";
  EXPECT_LE(r_hedged.p50_latency_us, r_jsq.p50_latency_us * 1.05)
      << "a well-floored hedge must not buy the tail with the median";
}

TEST(FleetTest, HedgeLosersAreCancelledNotDoubleCounted) {
  const auto reqs = infer::poisson_requests(24, /*rate=*/9000.0, 4, 8, 8, 20,
                                            fleet_gpt2().vocab, 57);
  infer::FleetConfig fc = fleet_config(3, simgpu::ExecMode::kModelOnly);
  fc.policy = infer::DispatchPolicy::kHedged;
  fc.fault_plans.resize(3);
  fc.fault_plans[0].kernel_spike_window(0, 400, "", 30.0);
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);
  // Every original request resolves exactly once at the router, regardless
  // of how many copies ran.
  EXPECT_EQ(rep.served + rep.shed, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(rep.lost, 0);
  EXPECT_EQ(static_cast<int64_t>(rep.requests.size()),
            static_cast<int64_t>(reqs.size()));
}

// ---------------------------------------------------------------------------
// 4. Honest stats under re-dispatch (engine-level satellite)
// ---------------------------------------------------------------------------

TEST(DegradedServingTest, EnqueueTimeGovernsTimeoutButArrivalGovernsStats) {
  const models::Gpt2Config mc = fleet_gpt2();
  const int64_t slots = 4, max_len = 144;
  SessionConfig sc;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.arena_bytes = infer::serve_capacity_scan(mc, sc.dtype, slots, max_len, 8);
  Session s(sc);
  models::Gpt2 model(mc, System::kLightSeq2, sc.dtype, 31, s.param_alloc());
  infer::KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  infer::ServeConfig scfg;
  scfg.admission_timeout_us = 1000.0;  // far shorter than the re-dispatch delay
  infer::ContinuousBatcher engine(s, model, cache, scfg);

  // A request that ARRIVED at t=0 but was handed to this engine at t=5000
  // (a router re-dispatch). The admission timeout must key off the hand-over
  // time — otherwise every re-dispatch would be insta-shed — while queue
  // wait and latency keep the original arrival.
  infer::Request r;
  r.id = 0;
  r.prompt = {5, 6, 7};
  r.spec.gen_len = 4;
  r.arrival_us = 0;
  r.enqueue_us = 5000.0;
  const infer::ServeReport rep = engine.serve({r});
  ASSERT_EQ(rep.served, 1);
  ASSERT_EQ(rep.shed_requests, 0) << "a fresh hand-over must not be timeout-shed";
  const infer::RequestStats& st = rep.requests[0];
  EXPECT_GE(st.admitted_us, 5000.0);
  EXPECT_GE(st.queue_us(), 5000.0)
      << "queue wait must include the time since the ORIGINAL arrival";
  EXPECT_GE(st.latency_us(), 5000.0);
}

// ---------------------------------------------------------------------------
// 5. Shedding edge cases
// ---------------------------------------------------------------------------

std::vector<infer::Request> burst_of(int64_t n, int64_t gen_len = 6) {
  std::vector<infer::Request> reqs;
  for (int64_t i = 0; i < n; ++i) {
    infer::Request r;
    r.id = i;
    r.prompt = {3, 4, 5, 6};
    r.spec.gen_len = gen_len;
    r.arrival_us = 0;  // all at once
    reqs.push_back(std::move(r));
  }
  return reqs;
}

infer::ServeReport run_fleet_burst(const infer::ServeConfig& scfg,
                                   const std::vector<infer::Request>& reqs) {
  const models::Gpt2Config mc = fleet_gpt2();
  const int64_t slots = 4, max_len = 144;
  SessionConfig sc;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.arena_bytes = infer::serve_capacity_scan(mc, sc.dtype, slots, max_len, 8);
  Session s(sc);
  models::Gpt2 model(mc, System::kLightSeq2, sc.dtype, 31, s.param_alloc());
  infer::KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  infer::ContinuousBatcher engine(s, model, cache, scfg);
  return engine.serve(reqs);
}

TEST(FleetTest, PrefixSharingFleetIsTokenExactToExclusivePages) {
  // Every burst request carries the same 4-token prompt; with 4-token pages
  // that prompt is exactly one full page, so a sharing fleet serves the whole
  // burst off one physical prefix page per replica. Sharing is a memory-layout
  // choice, never a numerics choice: the merged token streams must be bitwise
  // the exclusive-pages baseline.
  const auto reqs = burst_of(12, /*gen_len=*/5);
  infer::FleetConfig fc = fleet_config(2, simgpu::ExecMode::kExecute, DType::kF32);
  const infer::ServeReport base = single_replica_baseline(fc, reqs);
  ASSERT_EQ(base.served, 12);
  ASSERT_EQ(base.shared_page_hits, 0) << "the baseline must not share";

  fc.page_tokens = 4;
  fc.prefix_sharing = true;
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);
  EXPECT_EQ(rep.lost, 0);
  EXPECT_EQ(rep.shed, 0);
  ASSERT_EQ(rep.served, 12);
  int64_t hits = 0;
  for (const infer::ServeReport& r : rep.replica_reports) hits += r.shared_page_hits;
  EXPECT_GT(hits, 0) << "the common prompt page must actually be shared";
  for (const infer::RequestStats& st : rep.requests) {
    const infer::RequestStats* ref = nullptr;
    for (const infer::RequestStats& b : base.requests)
      if (b.id == st.id) ref = &b;
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(st.tokens, ref->tokens)
        << "request " << st.id << " must be token-identical without sharing";
  }
}

TEST(DegradedServingTest, QueueExactlyAtBoundIsNotShed) {
  infer::ServeConfig scfg;
  scfg.max_queue = 6;
  // 4 slots fill, leaving EXACTLY max_queue waiting: the bound is "more
  // than", so nothing sheds...
  const infer::ServeReport at = run_fleet_burst(scfg, burst_of(4 + 6));
  EXPECT_EQ(at.shed_requests, 0);
  EXPECT_EQ(at.served, 10);
  // ...and one past the bound sheds exactly that one (the newest arrival).
  const infer::ServeReport over = run_fleet_burst(scfg, burst_of(4 + 6 + 1));
  EXPECT_EQ(over.shed_requests, 1);
  EXPECT_EQ(over.served, 10);
  bool newest_shed = false;
  for (const infer::RequestStats& st : over.requests)
    if (st.id == 10 && st.shed) newest_shed = true;
  EXPECT_TRUE(newest_shed) << "backpressure rejects the NEWEST arrival";
}

TEST(DegradedServingTest, DeadlineAtAdmissionStillShipsOneToken) {
  infer::ServeConfig scfg;
  scfg.deadline_us = 1e-9;  // expires the moment anything is admitted
  const infer::ServeReport rep = run_fleet_burst(scfg, burst_of(4, /*gen_len=*/8));
  EXPECT_EQ(rep.shed_requests, 0);
  EXPECT_EQ(rep.served, 4);
  for (const infer::RequestStats& st : rep.requests) {
    EXPECT_TRUE(st.deadline_retired);
    EXPECT_GE(st.generated, 1)
        << "a deadline that lands at admission must still ship the partial "
           "answer, never an empty one";
    EXPECT_LT(st.generated, 8);
  }
}

TEST(DegradedServingTest, ShedAndDeadlineComposeUnderABurst) {
  infer::ServeConfig scfg;
  scfg.max_queue = 4;
  scfg.deadline_us = 1500.0;
  const auto reqs = burst_of(16, /*gen_len=*/12);
  const infer::ServeReport rep = run_fleet_burst(scfg, reqs);
  EXPECT_EQ(rep.served + rep.shed_requests, 16);
  EXPECT_GT(rep.shed_requests, 0);
  EXPECT_GT(rep.served, 0);
  for (const infer::RequestStats& st : rep.requests) {
    if (st.shed) {
      EXPECT_TRUE(st.tokens.empty()) << "shed requests never decode";
      EXPECT_FALSE(st.deadline_retired)
          << "shed and deadline-retired are mutually exclusive outcomes";
    } else if (st.deadline_retired) {
      EXPECT_GE(st.generated, 1);
      EXPECT_LT(st.generated, 12);
    }
  }
}

}  // namespace
}  // namespace ls2
