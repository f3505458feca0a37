// Fault tolerance (DESIGN.md §10).
//
// The contract, in order of importance:
//  1. BITWISE ROLLBACK — a DP x PP training run that loses its rank mid-step
//     resumes from the latest USABLE async checkpoint and finishes with
//     bitwise the FP32 parameters of the fault-free run. Checkpoints are raw
//     byte blobs + the (seed, step, site) counter-RNG, so replay IS the
//     original trajectory.
//  2. ELASTIC SHRINK — losing a DP peer under the elastic policy re-forms
//     the ring over the survivors (no respawn wait), the gradient-average
//     denominator rescales to the surviving replica count, and the run
//     completes degraded.
//  3. DETECTION — a stragglered link is detected at the stragglered step's
//     own sync point (exposed wait > collective timeout); a silent rank is
//     suspected by the wall-clock heartbeat watcher (the real-thread
//     component the TSan CI lane runs).
//  4. DEGRADED SERVING — under a burst, load shedding + admission timeouts
//     bound p99 for the requests actually served; a transient allocation
//     failure inside the decode step is retried with backoff, token-exact;
//     one inside an admission prefill leaves nothing of its sequence in the
//     KV cache (no lane, no page, no registered prefix).
//  5. TYPED ERRORS — injected allocator faults surface as
//     mem::TransientAllocFailure (an OutOfMemory, an ls2::Error), never as
//     an abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.h"
#include "core/fault_tolerant.h"
#include "core/lightseq2.h"
#include "dist/failure.h"
#include "infer/batcher.h"
#include "infer/fleet.h"
#include "memory/arena_allocator.h"
#include "simgpu/fault.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;
using simgpu::FaultPlan;

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

models::Gpt2Config small_gpt2() {
  models::Gpt2Config cfg;
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.layers = 4;  // >= PP degree: every stage owns at least one block
  cfg.max_len = 64;
  return cfg;
}

/// One training world per the run_fault_tolerant contract: session first
/// (destroyed last), deterministic model init from a fixed seed.
struct World {
  core::Session session;
  models::Gpt2 model;
  std::unique_ptr<optim::Optimizer> trainer;
  World(const SessionConfig& sc, const models::Gpt2Config& mc,
        const optim::OptimConfig& oc)
      : session(sc),
        model(mc, System::kLightSeq2, sc.dtype, /*seed=*/23, session.param_alloc()),
        trainer(std::make_unique<optim::LightSeq2Trainer>(model.params(), oc)) {}
};

/// Raw parameter bytes, for bitwise comparison across worlds.
std::vector<unsigned char> param_bytes(const layers::ParamRegistry& params) {
  std::vector<unsigned char> out;
  params.for_each([&](const std::string&, Tensor v, Tensor) {
    if (!v.defined() || !v.backs_real_memory()) return;
    const unsigned char* p = static_cast<const unsigned char*>(v.raw());
    out.insert(out.end(), p, p + v.bytes());
  });
  return out;
}

dist::ClusterConfig cluster_of(int dp, int pp = 1, int m = 1) {
  dist::ClusterConfig c;
  c.gpus_per_node = dp * pp;
  c.nodes = 1;
  c.pipeline_parallel = pp;
  c.microbatches = m;
  return c;
}

struct FtRun {
  core::FtReport report;
  std::vector<unsigned char> params;
  std::unique_ptr<World> world;
};

FtRun run_training(const core::FtConfig& fc, FaultPlan plan, SessionConfig sc,
                   optim::OptimConfig oc = {}) {
  const models::Gpt2Config mc = small_gpt2();
  data::LmDataset ds(mc.vocab, 4096, 47);
  const models::LmBatch batch = ds.batch(0, 4, 12);  // 4 rows: divides m=4
  auto [report, world] = core::run_fault_tolerant(
      fc, std::move(plan),
      [&](const dist::ClusterConfig&) { return std::make_unique<World>(sc, mc, oc); },
      [&](int64_t) -> const models::LmBatch& { return batch; });
  FtRun run;
  run.report = std::move(report);
  run.params = param_bytes(world->model.params());
  run.world = std::move(world);
  return run;
}

// ---------------------------------------------------------------------------
// Async checkpointer
// ---------------------------------------------------------------------------

TEST(AsyncCheckpointTest, CadenceAndInFlightLossSemantics) {
  core::AsyncCheckpointer every3(3);
  EXPECT_FALSE(every3.due(0));
  EXPECT_FALSE(every3.due(1));
  EXPECT_TRUE(every3.due(2));
  EXPECT_TRUE(every3.due(5));
  core::AsyncCheckpointer off(0);
  EXPECT_FALSE(off.due(2));

  SessionConfig sc;
  sc.system = System::kLightSeq2;
  World w(sc, small_gpt2(), {});
  data::LmDataset ds(small_gpt2().vocab, 4096, 47);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  (void)core::train_step(w.session, w.model, batch, *w.trainer);

  core::AsyncCheckpointer ck(1);
  ck.snapshot(w.session, w.model.params(), *w.trainer, /*completed_step=*/0);
  EXPECT_EQ(ck.snapshots_taken(), 1);
  EXPECT_GT(ck.snapshot_bytes(), 0);
  // The host drain rides the comm stream: not usable before it completes.
  EXPECT_EQ(ck.latest_ready(0.0), nullptr);
  const double drained = w.session.device().comm_clock_us() + 1.0;
  ASSERT_NE(ck.latest_ready(drained), nullptr);
  EXPECT_EQ(ck.latest_ready(drained)->step, 0);

  // A failure BEFORE the drain completes loses the in-flight snapshot.
  core::AsyncCheckpointer lost(1);
  lost.snapshot(w.session, w.model.params(), *w.trainer, 1);
  lost.on_failure(/*fail_clock_us=*/0.0);
  EXPECT_EQ(lost.latest_ready(1e18), nullptr);
  // A failure AFTER keeps it, re-based for the rebuilt world's clock.
  ck.on_failure(1e18);
  ASSERT_NE(ck.latest_ready(0.0), nullptr);
}

TEST(AsyncCheckpointTest, RestoreRoundTripsParamsTrainerAndStepCount) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  const models::Gpt2Config mc = small_gpt2();
  data::LmDataset ds(mc.vocab, 4096, 47);
  const models::LmBatch batch = ds.batch(0, 4, 12);

  World w(sc, mc, {});
  (void)core::train_step(w.session, w.model, batch, *w.trainer);
  (void)core::train_step(w.session, w.model, batch, *w.trainer);
  const std::vector<unsigned char> at_snapshot = param_bytes(w.model.params());
  const int64_t steps_at_snapshot = w.trainer->steps_taken();

  core::AsyncCheckpointer ck(1);
  ck.snapshot(w.session, w.model.params(), *w.trainer, 1);
  (void)core::train_step(w.session, w.model, batch, *w.trainer);
  (void)core::train_step(w.session, w.model, batch, *w.trainer);
  EXPECT_NE(param_bytes(w.model.params()), at_snapshot) << "training must move params";

  ck.on_failure(1e18);
  const core::CheckpointSnapshot* snap = ck.latest_ready(0.0);
  ASSERT_NE(snap, nullptr);
  core::AsyncCheckpointer::restore(*snap, w.session, w.model.params(), *w.trainer);
  EXPECT_EQ(param_bytes(w.model.params()), at_snapshot) << "restore must be bitwise";
  EXPECT_EQ(w.trainer->steps_taken(), steps_at_snapshot);
}

// ---------------------------------------------------------------------------
// 1. Bitwise rollback-and-replay (DP x PP)
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, RollbackReplayResumesBitwiseUnderDpXPp) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.checkpoint_every = 2;

  core::FtConfig fc;
  fc.cluster = cluster_of(/*dp=*/2, /*pp=*/2, /*m=*/4);
  fc.policy = core::RecoveryPolicy::kRollbackReplay;
  fc.steps = 8;

  const FtRun clean = run_training(fc, FaultPlan{}, sc);
  ASSERT_FALSE(clean.params.empty());
  EXPECT_EQ(clean.report.failures, 0);
  EXPECT_EQ(clean.report.steps_completed, 8);
  EXPECT_GT(clean.report.snapshots, 0);
  EXPECT_GT(clean.report.checkpoint_stage_us, 0.0);

  FaultPlan plan;
  plan.add(FaultPlan::device_loss(/*step=*/5, /*rank=*/0));
  const FtRun faulted = run_training(fc, plan, sc);

  EXPECT_EQ(faulted.report.failures, 1);
  ASSERT_EQ(faulted.report.events.size(), 1u);
  EXPECT_STREQ(faulted.report.events[0].kind, "device_lost");
  EXPECT_EQ(faulted.report.events[0].fail_step, 5);
  // checkpoint_every=2 => snapshots after steps 1 and 3; restart at 4.
  EXPECT_EQ(faulted.report.events[0].restart_step, 4);
  EXPECT_FALSE(faulted.report.events[0].shrunk);
  EXPECT_GT(faulted.report.events[0].recover_us, 0.0);
  EXPECT_EQ(faulted.report.steps_completed, 8);
  // Recovery is charged: respawn + restore + replayed steps cost wall clock.
  EXPECT_GT(faulted.report.total_us, clean.report.total_us);

  // THE acceptance property: final FP32 parameters bitwise identical.
  EXPECT_EQ(faulted.params, clean.params)
      << "rollback-and-replay diverged from the fault-free trajectory";
}

// ---------------------------------------------------------------------------
// 2. Elastic DP shrink
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, ElasticShrinkContinuesDegradedWithoutRespawnWait) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.checkpoint_every = 2;

  core::FtConfig fc;
  fc.cluster = cluster_of(/*dp=*/4);
  fc.steps = 6;

  FaultPlan plan;
  plan.add(FaultPlan::device_loss(/*step=*/3, /*rank=*/1));  // a PEER dies

  fc.policy = core::RecoveryPolicy::kElasticShrink;
  const FtRun elastic = run_training(fc, plan, sc);
  fc.policy = core::RecoveryPolicy::kRollbackReplay;
  const FtRun rollback = run_training(fc, plan, sc);

  // Both complete the run; detection is at a sync point (timed-out ring).
  for (const FtRun* r : {&elastic, &rollback}) {
    EXPECT_EQ(r->report.steps_completed, 6);
    EXPECT_EQ(r->report.failures, 1);
    ASSERT_EQ(r->report.events.size(), 1u);
    EXPECT_STREQ(r->report.events[0].kind, "peer_lost");
  }
  // Elastic: the survivors re-form a 3-wide ring immediately.
  EXPECT_TRUE(elastic.report.events[0].shrunk);
  EXPECT_EQ(elastic.report.final_cluster.dp_lost, 1);
  EXPECT_EQ(elastic.report.final_cluster.dp_size(), 3);
  // Rollback: waits for the respawn, keeps the provisioned width.
  EXPECT_FALSE(rollback.report.events[0].shrunk);
  EXPECT_EQ(rollback.report.final_cluster.dp_size(), 4);
  // ...which is exactly the availability trade: elastic recovers faster.
  EXPECT_LT(elastic.report.events[0].recover_us, rollback.report.events[0].recover_us);
  // Rollback's replay is bitwise, so it matches a clean run of the same
  // schedule; elastic is DEGRADED (different ring width), not divergent —
  // its params still came from the same restored snapshot.
  const FtRun clean = run_training(fc, FaultPlan{}, sc);
  EXPECT_EQ(rollback.params, clean.params);
  EXPECT_EQ(elastic.params, clean.params)
      << "this sim executes rank 0 only, so a shrink must not change numerics";
}

TEST(FaultToleranceTest, ElasticAverageRescalesToTheSurvivingReplicas) {
  // The numerics half of the shrink: allreduce_average divides by the
  // participant count, so re-forming the group over survivors IS the
  // rescaled gradient denominator.
  auto make = [](float v) {
    Tensor t = Tensor::empty({8}, DType::kF32);
    t.fill_(v);
    return t;
  };
  Tensor a = make(1.0f), b = make(2.0f), c = make(3.0f), d = make(10.0f);
  dist::allreduce_average({a, b, c, d});
  for (float v : a.to_vector()) EXPECT_FLOAT_EQ(v, 4.0f);  // (1+2+3+10)/4

  // Rank d is lost: the survivors' next sync averages over THREE.
  Tensor a2 = make(1.0f), b2 = make(2.0f), c2 = make(3.0f);
  dist::allreduce_average({a2, b2, c2});
  for (float v : a2.to_vector()) EXPECT_FLOAT_EQ(v, 2.0f);  // (1+2+3)/3
  EXPECT_EQ(a2.to_vector(), c2.to_vector());
}

// ---------------------------------------------------------------------------
// 3. Straggler detection
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, StragglerDetectedAtItsOwnSyncPoint) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.collective_timeout_us = 20.0;  // tight: the stretched ring must trip it

  core::FtConfig fc;
  fc.cluster = cluster_of(/*dp=*/2);
  fc.steps = 6;

  FaultPlan plan;
  plan.add(FaultPlan::straggler(/*step=*/2, /*factor=*/64.0));
  const FtRun run = run_training(fc, plan, sc);

  // No failure — a straggler degrades, it does not kill the run.
  EXPECT_EQ(run.report.failures, 0);
  EXPECT_EQ(run.report.steps_completed, 6);
  // Detected within the stragglered step's own sync (one sync timeout):
  // exactly one detection, attributed to step 2.
  EXPECT_GE(run.report.timeout_exceedances, 1);
  ASSERT_EQ(run.report.stragglers_detected, 1);
  ASSERT_EQ(run.report.straggler_steps.size(), 1u);
  EXPECT_EQ(run.report.straggler_steps[0], 2);

  const FtRun clean = run_training(fc, FaultPlan{}, sc);
  EXPECT_EQ(clean.report.stragglers_detected, 0) << "no false positives";
  EXPECT_GT(run.report.total_us, clean.report.total_us) << "slow link costs time";
  EXPECT_EQ(run.params, clean.params) << "a slow wire must not change numerics";
}

// ---------------------------------------------------------------------------
// 4. Gradient corruption x GradScaler x PP microbatches
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, NanBurstSkipsExactlyOneUpdateAcrossPpMicrobatches) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF16;

  optim::OptimConfig oc;
  oc.lr = 0.01f;
  oc.dynamic_loss_scale = true;

  core::FtConfig fc;
  fc.cluster = cluster_of(/*dp=*/1, /*pp=*/2, /*m=*/4);
  fc.steps = 5;

  FaultPlan plan;
  plan.add(FaultPlan::grad_corrupt(/*step=*/2, 0, std::numeric_limits<size_t>::max()));
  const FtRun run = run_training(fc, plan, sc, oc);

  // The burst lands AFTER the 4 microbatches accumulated, at the sync
  // point; check_overflow sees it, the whole update is skipped, the scale
  // backs off, and training continues — no failure, no rollback.
  EXPECT_EQ(run.report.failures, 0);
  EXPECT_EQ(run.report.steps_completed, 5);
  const optim::GradScaler* scaler = run.world->trainer->scaler();
  ASSERT_NE(scaler, nullptr);
  EXPECT_EQ(scaler->state().overflow_steps, 1);
  EXPECT_LT(scaler->state().scale, optim::GradScalerConfig{}.init_scale);

  const FtRun clean = run_training(fc, FaultPlan{}, sc, oc);
  EXPECT_EQ(clean.world->trainer->scaler()->state().overflow_steps, 0);
  // Post-burst params are finite and the skipped step left them behind the
  // clean trajectory (one fewer effective update).
  EXPECT_NE(run.params, clean.params);
}

// ---------------------------------------------------------------------------
// 5. Typed transient allocation faults
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, InjectedAllocFaultIsTypedAndRecoverable) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  mem::ArenaAllocator arena(dev, 1 << 20);

  FaultPlan plan;
  plan.add(FaultPlan::alloc_fail(/*step=*/0, /*count=*/1));
  plan.add(FaultPlan::alloc_fail(/*step=*/0, /*count=*/1));
  simgpu::FaultInjector inj(plan);
  dev.set_fault_injector(&inj);
  inj.arm(0);

  // First fault: the full typed surface.
  try {
    (void)arena.allocate(1024);
    FAIL() << "armed alloc fault must throw";
  } catch (const mem::TransientAllocFailure& e) {
    EXPECT_NE(std::string(e.what()).find("retry"), std::string::npos)
        << "the message must tell the caller a retry is expected to work";
  }
  // Second fault: catchable at every level of the hierarchy it extends.
  EXPECT_THROW((void)arena.allocate(1024), mem::OutOfMemory);
  EXPECT_EQ(inj.fired(simgpu::FaultKind::kAllocFail), 2);

  // Transient means transient: with the plan exhausted, the SAME request
  // succeeds and the arena is undamaged.
  void* p = arena.allocate(1024);
  ASSERT_NE(p, nullptr);
  arena.deallocate(p, 1024);
  EXPECT_EQ(arena.outstanding(), 0);
  dev.set_fault_injector(nullptr);
}

// ---------------------------------------------------------------------------
// 6. Serving: shedding bounds the tail, deadlines ship partial answers
// ---------------------------------------------------------------------------

models::Gpt2Config serve_gpt2() {
  models::Gpt2Config cfg;
  cfg.vocab = 512;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.layers = 4;
  cfg.max_len = 256;
  return cfg;
}

infer::ServeReport run_burst(const infer::ServeConfig& scfg,
                             const std::vector<infer::Request>& reqs,
                             simgpu::FaultInjector* inj = nullptr,
                             simgpu::ExecMode mode = simgpu::ExecMode::kModelOnly,
                             DType dt = DType::kF16) {
  const models::Gpt2Config cfg = serve_gpt2();
  const int64_t slots = 4, max_len = 144;
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = dt;
  sc.mode = mode;
  sc.arena_bytes = infer::serve_capacity_scan(cfg, dt, slots, max_len, 8);
  Session s(sc);
  if (inj != nullptr) s.device().set_fault_injector(inj);
  models::Gpt2 model(cfg, System::kLightSeq2, dt, 31, s.param_alloc());
  infer::KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  infer::ContinuousBatcher engine(s, model, cache, scfg);
  infer::ServeReport r = engine.serve(reqs);
  s.device().set_fault_injector(nullptr);
  return r;
}

TEST(DegradedServingTest, SheddingBoundsP99UnderABurst) {
  // An over-capacity burst: 64 requests arriving far faster than 4 slots
  // can drain them, so unbounded queueing grows the tail without limit.
  const auto reqs = infer::poisson_requests(64, /*rate=*/20000.0, 4, 8, 8, 64,
                                            serve_gpt2().vocab, 97);
  const infer::ServeReport open = run_burst({}, reqs);
  ASSERT_EQ(open.shed_requests, 0);
  ASSERT_EQ(open.served, static_cast<int64_t>(reqs.size()));

  infer::ServeConfig scfg;
  scfg.admission_timeout_us = open.p50_latency_us;  // bound queue time
  scfg.max_queue = 6;                               // and queue depth
  const infer::ServeReport shed = run_burst(scfg, reqs);

  EXPECT_GT(shed.shed_requests, 0) << "an over-capacity burst must shed";
  EXPECT_EQ(shed.served + shed.shed_requests, static_cast<int64_t>(reqs.size()));
  EXPECT_GT(shed.served, 0);
  EXPECT_LT(shed.p99_latency_us, open.p99_latency_us)
      << "shedding exists to bound the tail of the requests actually served";
  for (const infer::RequestStats& st : shed.requests) {
    if (st.shed) EXPECT_TRUE(st.tokens.empty()) << "shed requests never decode";
  }
}

TEST(DegradedServingTest, DeadlineRetiresWithAPartialAnswer) {
  const auto reqs = infer::poisson_requests(24, /*rate=*/8000.0, 4, 8, 24, 48,
                                            serve_gpt2().vocab, 11);
  const infer::ServeReport open = run_burst({}, reqs);
  infer::ServeConfig scfg;
  scfg.deadline_us = open.p50_latency_us;
  const infer::ServeReport sla = run_burst(scfg, reqs);

  EXPECT_GT(sla.deadline_retired, 0) << "the tail must hit the deadline";
  EXPECT_EQ(sla.shed_requests, 0);
  for (size_t i = 0; i < sla.requests.size(); ++i) {
    const infer::RequestStats& st = sla.requests[i];
    if (!st.deadline_retired) continue;
    EXPECT_GE(st.generated, 1) << "partial answer, not an empty one";
    EXPECT_LT(st.generated, reqs[static_cast<size_t>(st.id)].spec.gen_len)
        << "deadline retirement is only marked when generation was cut short";
  }
  EXPECT_LE(sla.p99_latency_us, open.p99_latency_us);
}

TEST(DegradedServingTest, DecodeStepRetriesTransientAllocFaultTokenExact) {
  const auto reqs = infer::poisson_requests(6, /*rate=*/4000.0, 2, 5, 4, 8,
                                            serve_gpt2().vocab, 29);
  const infer::ServeReport clean =
      run_burst({}, reqs, nullptr, simgpu::ExecMode::kExecute, DType::kF32);

  FaultPlan plan;
  plan.add(FaultPlan::alloc_fail(/*step=*/0, /*count=*/1, /*site=*/"serve.decode"));
  simgpu::FaultInjector inj(plan);
  inj.arm(0);
  infer::ServeConfig scfg;
  scfg.decode_retries = 2;
  scfg.retry_backoff_us = 500.0;
  const infer::ServeReport faulted =
      run_burst(scfg, reqs, &inj, simgpu::ExecMode::kExecute, DType::kF32);

  EXPECT_EQ(faulted.decode_retries, 1);
  EXPECT_EQ(inj.fired(simgpu::FaultKind::kAllocFail), 1);
  EXPECT_EQ(faulted.served, static_cast<int64_t>(reqs.size()));
  EXPECT_GT(faulted.makespan_us, clean.makespan_us) << "the backoff is charged";
  // Greedy sampling: the rerun decode step reproduces the exact tokens.
  ASSERT_EQ(faulted.requests.size(), clean.requests.size());
  for (size_t i = 0; i < clean.requests.size(); ++i) {
    EXPECT_EQ(faulted.requests[i].tokens, clean.requests[i].tokens)
        << "request " << i << ": retry changed the generation";
  }

  // Budget exhausted => the typed error escapes to the caller instead of
  // spinning forever.
  FaultPlan flood;
  flood.add(FaultPlan::alloc_fail(0, /*count=*/-1, "serve.decode"));
  simgpu::FaultInjector inj2(flood);
  inj2.arm(0);
  EXPECT_THROW(run_burst(scfg, reqs, &inj2, simgpu::ExecMode::kExecute, DType::kF32),
               mem::TransientAllocFailure);
}

/// A 9-token prompt: two full 4-token pages plus one row.
std::vector<int32_t> nine_token_prompt() { return {11, 12, 13, 14, 15, 16, 17, 18, 19}; }

// allocate() registers the full pages a prompt is ABOUT to fill before its
// prefill runs. A prefill that throws must therefore free the sequence:
// otherwise its lane leaks, and the registry hands the never-written pages
// to the next prompt sharing the prefix, whose prefill then skips them.
TEST(DegradedServingTest, FailedAdmissionPrefillFreesItsSequence) {
  const models::Gpt2Config cfg = serve_gpt2();
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = DType::kF32;
  sc.mode = simgpu::ExecMode::kExecute;
  sc.arena_bytes = infer::serve_capacity_scan(cfg, sc.dtype, 4, 144, 16);
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, sc.dtype, 31, s.param_alloc());
  infer::KvCacheConfig kcfg = model.kv_cache_config(4, 144);
  kcfg.page_tokens = 4;
  kcfg.prefix_sharing = true;
  infer::KvCache cache(kcfg, s.param_alloc());
  infer::ContinuousBatcher engine(s, model, cache, {});

  FaultPlan plan;
  plan.add(FaultPlan::alloc_fail(/*step=*/0, /*count=*/1, /*site=*/"serve.prefill"));
  simgpu::FaultInjector inj(plan);
  inj.arm(0);
  s.device().set_fault_injector(&inj);
  infer::Request req;
  req.prompt = nine_token_prompt();
  req.spec.gen_len = 4;
  engine.begin();
  engine.submit(req);
  EXPECT_THROW(engine.step(), mem::TransientAllocFailure);
  s.device().set_fault_injector(nullptr);
  s.end_step();
  EXPECT_EQ(inj.fired(simgpu::FaultKind::kAllocFail), 1);

  EXPECT_EQ(cache.active_seqs(), 0) << "the failed admission's lane leaked";
  EXPECT_EQ(cache.used_pages(), 0) << "the failed admission's pages leaked";
  EXPECT_EQ(engine.queue_depth(), 1) << "the request stays queued";
  const auto evac = engine.evacuate(/*queued_only=*/false);
  ASSERT_EQ(evac.size(), 1u);
  EXPECT_EQ(evac[0].partial.admitted_us, 0) << "a failed admission admitted nothing";
  EXPECT_EQ(cache.active_seqs(), 0);
  EXPECT_EQ(cache.used_pages(), 0);
  const infer::SequenceHandle h = cache.allocate(9, req.prompt.data());
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(cache.write_begin(h), 0) << "the registry kept pages nobody wrote";
}

// The same fault under a sharing fleet: the quarantined replica gets the
// request back (it is the only one) along with every later copy of the
// prompt, and all of them must generate exactly the fault-free tokens.
TEST(DegradedServingTest, FailedPrefillUnderSharingFleetIsTokenExact) {
  std::vector<infer::Request> reqs;
  for (int64_t i = 0; i < 6; ++i) {
    infer::Request r;
    r.id = i;
    r.prompt = nine_token_prompt();
    r.spec.gen_len = 6;
    r.arrival_us = 100.0 * static_cast<double>(i);
    reqs.push_back(std::move(r));
  }
  const infer::ServeReport clean =
      run_burst({}, reqs, nullptr, simgpu::ExecMode::kExecute, DType::kF32);
  ASSERT_EQ(clean.served, static_cast<int64_t>(reqs.size()));

  infer::FleetConfig fc;
  fc.replicas = 1;
  fc.model = serve_gpt2();
  fc.model_seed = 31;
  fc.slots = 4;
  fc.max_len = 144;
  fc.session.mode = simgpu::ExecMode::kExecute;
  fc.session.dtype = DType::kF32;
  fc.page_tokens = 4;
  fc.prefix_sharing = true;
  fc.fault_plans.resize(1);
  fc.fault_plans[0].add(FaultPlan::alloc_fail(/*step=*/0, /*count=*/1, "serve.prefill"));
  infer::Fleet fleet(fc);
  const infer::FleetReport rep = fleet.run(reqs);
  EXPECT_EQ(rep.quarantines, 1);
  EXPECT_EQ(rep.lost, 0);
  EXPECT_EQ(rep.shed, 0);
  ASSERT_EQ(rep.served, static_cast<int64_t>(reqs.size()));
  EXPECT_GT(rep.replica_reports[0].shared_page_hits, 0) << "the prompt pages must be shared";
  for (const infer::RequestStats& st : rep.requests) {
    EXPECT_EQ(st.tokens, clean.requests[static_cast<size_t>(st.id)].tokens)
        << "request " << st.id << ": the failed prefill changed the generation";
  }
}

// ---------------------------------------------------------------------------
// 7. Paged KV-cache lifecycle churn (refcount / COW / fragmentation property)
// ---------------------------------------------------------------------------

// Random admit / retire / fork / decode churn over an OVERSUBSCRIBED page
// pool with prefix sharing on. After every operation:
//   (1) free + used pages == pool (nothing leaks, nothing double-frees);
//   (2) the refcount sum equals the page references live sequences hold
//       (fork +1s, COW and free -1s — they must balance exactly);
//   (3) every used page has refcount >= 1, every free page refcount == 0;
//   (4) allocate() MUST succeed whenever a lane is free and the free pool
//       covers the worst case (sharing can only reduce the need).
TEST(KvCacheChurnTest, RandomPagedLifecycleChurnHoldsInvariants) {
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 1);
  infer::KvCacheConfig cfg;
  cfg.layers = 1;
  cfg.heads = 1;
  cfg.head_dim = 2;
  cfg.slots = 4;
  cfg.seq_tokens = 12;
  cfg.page_tokens = 4;
  cfg.prefix_sharing = true;
  // 4 lanes x 3 worst-case pages = 12 > 8: lanes outnumber worst-case
  // memory, so the churn genuinely exercises pool exhaustion.
  cfg.total_pages = 8;
  infer::KvCache cache(cfg);
  const int64_t page = cfg.page();

  Rng rng(123);
  std::vector<infer::SequenceHandle> active;
  std::unordered_map<int64_t, int32_t> shadow_len;  // handle id -> expected len
  const std::vector<int32_t> sys_prompt = {5, 6, 7, 8};  // one full page

  auto retire_at = [&](size_t i) {
    shadow_len.erase(active[i].id);
    cache.free(active[i]);
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
  };
  auto check_invariants = [&]() {
    ASSERT_EQ(cache.free_pages() + cache.used_pages(), cfg.pool_pages());
    ASSERT_EQ(cache.active_seqs(), static_cast<int64_t>(active.size()));
    int64_t held = 0;
    for (const infer::SequenceHandle& h : active) {
      held += cache.capacity(h) / page;
      ASSERT_EQ(cache.len(h), shadow_len[h.id]);
    }
    int64_t refsum = 0, used = 0;
    for (int32_t rc : cache.page_refcounts()) {
      ASSERT_GE(rc, 0);
      refsum += rc;
      if (rc > 0) ++used;
    }
    ASSERT_EQ(refsum, held) << "refcounts out of balance with live block tables";
    ASSERT_EQ(used, cache.used_pages());
  };

  for (uint64_t iter = 0; iter < 800; ++iter) {
    const int64_t op = rng.randint(1, iter, 4);
    if (op == 0) {
      // Admit: half the prompts start with the shared system page.
      std::vector<int32_t> prompt;
      if (rng.randint(5, iter, 2) == 0) {
        prompt = sys_prompt;
        const int64_t tail = rng.randint(6, iter, 3);
        for (int64_t j = 0; j < tail; ++j)
          prompt.push_back(static_cast<int32_t>(rng.randint(7, iter * 8 + static_cast<uint64_t>(j), 9)));
      } else {
        const int64_t len = 1 + rng.randint(6, iter, 6);
        for (int64_t j = 0; j < len; ++j)
          prompt.push_back(static_cast<int32_t>(100 + rng.randint(7, iter * 8 + static_cast<uint64_t>(j), 9)));
      }
      const int64_t worst = (static_cast<int64_t>(prompt.size()) + page - 1) / page;
      const bool must_fit = cache.free_lanes() > 0 && cache.free_pages() >= worst;
      const infer::SequenceHandle h =
          cache.allocate(static_cast<int64_t>(prompt.size()), prompt.data());
      if (h.valid()) {
        active.push_back(h);
        shadow_len[h.id] = static_cast<int32_t>(prompt.size());
      } else {
        EXPECT_FALSE(must_fit) << "allocate refused with a lane and worst-case pages free";
      }
    } else if (op == 1 && !active.empty()) {
      retire_at(static_cast<size_t>(
          rng.randint(2, iter, static_cast<int64_t>(active.size()))));
    } else if (op == 2 && !active.empty()) {
      const size_t i = static_cast<size_t>(
          rng.randint(3, iter, static_cast<int64_t>(active.size())));
      const bool lane_free = cache.free_lanes() > 0;
      const infer::SequenceHandle f = cache.fork(active[i]);
      EXPECT_EQ(f.valid(), lane_free) << "fork succeeds exactly when a lane is free";
      if (f.valid()) {
        shadow_len[f.id] = cache.len(active[i]);
        active.push_back(f);
      }
    } else if (op == 3 && !active.empty()) {
      // One decode step: retire at-capacity sequences, extend the rest
      // (recompute-preemption stand-in: evict the newest when the pool is
      // dry), then check the step views.
      for (size_t i = active.size(); i-- > 0;) {
        if (cache.len(active[i]) >= cfg.seq_tokens) retire_at(i);
      }
      for (size_t i = 0; i < active.size();) {
        if (cache.extend(active[i], kc)) {
          ++i;
          continue;
        }
        EXPECT_LT(cache.free_pages(), 1) << "extend refused with pages free";
        retire_at(active.size() - 1);  // evict the newest resident
        if (i >= active.size()) break;
      }
      if (active.empty()) continue;
      cache.begin_decode();
      const int32_t* pos = cache.positions().data<int32_t>();
      const int32_t* att = cache.attend_lens().data<int32_t>();
      std::set<int64_t> lanes;
      for (const infer::SequenceHandle& h : active) {
        const int64_t lane = cache.lane(h);
        lanes.insert(lane);
        EXPECT_EQ(pos[lane], shadow_len[h.id]);
        EXPECT_EQ(att[lane], shadow_len[h.id] + 1);
      }
      for (int64_t s = 0; s < cfg.slots; ++s) {
        if (!lanes.count(s)) EXPECT_EQ(att[s], 0) << "free lanes attend nothing";
      }
      cache.commit_decode();
      for (const infer::SequenceHandle& h : active) ++shadow_len[h.id];
    }
    check_invariants();
  }

  EXPECT_GT(cache.stats().shared_page_hits, 0) << "the system page must get reused";
  EXPECT_GT(cache.stats().forks, 0);

  // reset() releases everything — no leaked pages after arbitrary churn.
  const infer::SequenceHandle stale = active.empty() ? cache.allocate(1) : active.front();
  cache.reset();
  EXPECT_EQ(cache.active_seqs(), 0);
  EXPECT_EQ(cache.free_pages(), cfg.pool_pages());
  EXPECT_THROW((void)cache.len(stale), Error) << "pre-reset handles are stale";
  for (int64_t s = 0; s < cfg.slots; ++s) EXPECT_TRUE(cache.allocate(1).valid());
  EXPECT_FALSE(cache.allocate(1).valid());
}

// ---------------------------------------------------------------------------
// 8. Heartbeat monitor (real threads — the TSan lane's subject)
// ---------------------------------------------------------------------------

TEST(HeartbeatMonitorTest, SuspectsTheSilentRankAndClearsOnRevival) {
  dist::HeartbeatConfig hc;
  hc.ranks = 3;
  hc.interval = std::chrono::milliseconds(2);
  hc.timeout = std::chrono::milliseconds(40);
  dist::HeartbeatMonitor mon(hc);

  std::mutex mu;
  std::vector<int> reported;
  mon.on_suspect([&](int rank) {
    std::lock_guard<std::mutex> lock(mu);
    reported.push_back(rank);
  });
  mon.start();

  // Ranks 0 and 2 beat steadily from their own threads; rank 1 goes silent
  // after one beat.
  std::atomic<bool> stop{false};
  auto beater = [&](int rank) {
    while (!stop.load()) {
      mon.beat(rank);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  std::thread t0(beater, 0), t2(beater, 2);
  mon.beat(1);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool suspected1 = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::vector<int> s = mon.suspected();
    if (std::find(s.begin(), s.end(), 1) != s.end()) {
      suspected1 = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(suspected1) << "a silent rank must be suspected within the timeout";
  EXPECT_GE(mon.suspect_events(), 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_NE(std::find(reported.begin(), reported.end(), 1), reported.end())
        << "the on_suspect callback must have fired for rank 1";
  }

  // A revival beat clears the suspicion synchronously.
  mon.beat(1);
  const std::vector<int> after = mon.suspected();
  EXPECT_EQ(std::find(after.begin(), after.end(), 1), after.end());

  stop.store(true);
  t0.join();
  t2.join();
  mon.stop();
  EXPECT_GT(mon.scans(), 0);
}

}  // namespace
}  // namespace ls2
