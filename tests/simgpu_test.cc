#include "simgpu/device.h"

#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "common/check.h"
#include "simgpu/fault.h"
#include "simgpu/profile.h"

namespace ls2::simgpu {
namespace {

KernelDesc bytes_kernel(int64_t bytes, double eff = 0.8) {
  KernelDesc d;
  d.name = "test.bytes";
  d.bytes_read = bytes / 2;
  d.bytes_written = bytes - bytes / 2;
  d.mem_efficiency = eff;
  return d;
}

TEST(ProfileTest, LookupByName) {
  EXPECT_EQ(profile_by_name("v100").name, "V100");
  EXPECT_EQ(profile_by_name("A100").name, "A100");
  EXPECT_THROW(profile_by_name("h100"), Error);
}

TEST(ProfileTest, A100IsFasterThanV100) {
  const DeviceProfile v = v100(), a = a100();
  EXPECT_GT(a.mem_bw_gb_s, v.mem_bw_gb_s);
  EXPECT_GT(a.fp16_tflops, v.fp16_tflops);
}

TEST(DeviceTest, BandwidthBoundKernelTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  // 900 GB/s * 0.8 eff => 720 bytes/ns. 720 MB should take 1000 us.
  const double t = dev.kernel_time_us(bytes_kernel(720 * 1000 * 1000));
  EXPECT_NEAR(t, 1000.0, 1e-6);
}

TEST(DeviceTest, ComputeBoundKernelTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  KernelDesc d;
  d.name = "test.flops";
  d.flops = 15.7e12 * 0.7 * 1e-3;  // exactly 1 ms at 70% of fp32 peak
  d.compute_efficiency = 0.7;
  EXPECT_NEAR(dev.kernel_time_us(d), 1000.0, 1e-6);
}

TEST(DeviceTest, TensorCoreUsesFp16Peak) {
  Device dev(v100(), ExecMode::kModelOnly);
  KernelDesc d;
  d.name = "test.tc";
  d.flops = 1e12;
  d.compute_efficiency = 0.5;
  d.tensor_core = false;
  const double fp32_t = dev.kernel_time_us(d);
  d.tensor_core = true;
  const double fp16_t = dev.kernel_time_us(d);
  EXPECT_NEAR(fp32_t / fp16_t, 125.0 / 15.7, 1e-6);
}

TEST(DeviceTest, LaunchAdvancesClockAndStats) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_NEAR(dev.clock_us(), 4.5 + 1.0, 1e-9);
  EXPECT_EQ(dev.stats().launches, 1);
  EXPECT_EQ(dev.stats().bytes_moved, 720 * 1000);
}

TEST(DeviceTest, ModelOnlySkipsBody) {
  Device dev(v100(), ExecMode::kModelOnly);
  bool ran = false;
  dev.launch(bytes_kernel(100), [&] { ran = true; });
  EXPECT_FALSE(ran);
  dev.set_mode(ExecMode::kExecute);
  dev.launch(bytes_kernel(100), [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(DeviceTest, RangesAttributeTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  {
    ScopedRange fw(dev, "forward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
    {
      ScopedRange inner(dev, "attn");
      dev.launch(bytes_kernel(720 * 1000), nullptr);
    }
  }
  {
    ScopedRange bw(dev, "backward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
  }
  EXPECT_NEAR(dev.range_time_us("forward"), 5.5, 1e-9);
  EXPECT_NEAR(dev.range_time_us("attn"), 5.5, 1e-9);
  EXPECT_NEAR(dev.range_time_us("backward"), 5.5, 1e-9);
  EXPECT_EQ(dev.range_time_us("update"), 0.0);
}

TEST(DeviceTest, UtilizationCountsOverheadAsIdle) {
  Device dev(v100(), ExecMode::kModelOnly);
  // Launch overhead 4.5us + exec 1.0us => utilization ~ 1/5.5.
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_NEAR(dev.utilization(), 1.0 / 5.5, 1e-9);
}

TEST(DeviceTest, PerKernelStatsAggregate) {
  Device dev(v100(), ExecMode::kModelOnly);
  for (int i = 0; i < 3; ++i) dev.launch(bytes_kernel(720 * 1000), nullptr);
  const auto& pk = dev.per_kernel().at("test.bytes");
  EXPECT_EQ(pk.launches, 3);
  EXPECT_NEAR(pk.time_us, 3 * 5.5, 1e-9);
}

TEST(DeviceTest, ResetClearsEverything) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.launch(bytes_kernel(100), nullptr);
  dev.reset();
  EXPECT_EQ(dev.clock_us(), 0.0);
  EXPECT_EQ(dev.stats().launches, 0);
  EXPECT_TRUE(dev.per_kernel().empty());
}

TEST(DeviceTest, AdvanceBusyVsIdle) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.advance(10.0, /*busy=*/true, "comm");
  dev.advance(30.0, /*busy=*/false, "wait");
  EXPECT_NEAR(dev.clock_us(), 40.0, 1e-9);
  EXPECT_NEAR(dev.utilization(), 0.25, 1e-9);
  EXPECT_NEAR(dev.range_time_us("comm"), 10.0, 1e-9);
  EXPECT_NEAR(dev.range_time_us("wait"), 30.0, 1e-9);
}

TEST(DeviceTest, OverheadSplitsIntoLaunchGapAndAllocStall) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.launch(bytes_kernel(720 * 1000), nullptr);  // 4.5 gap + 1.0 exec
  dev.charge_alloc(/*cache_hit=*/true);           // 2.0
  dev.charge_alloc(/*cache_hit=*/false);          // 120.0
  dev.charge_free();                              // 60.0
  const auto& s = dev.stats();
  EXPECT_NEAR(s.launch_gap_us, 4.5, 1e-9);
  EXPECT_NEAR(s.alloc_stall_us, 2.0 + 120.0 + 60.0, 1e-9);
  EXPECT_NEAR(s.overhead_us, s.launch_gap_us + s.alloc_stall_us, 1e-9);
}

// --- wait_comm_until edge cases ---

TEST(CommStreamTest, WaitOnAlreadyPassedTimestampIsStrictNoOp) {
  Device dev(v100(), ExecMode::kModelOnly);
  const double done = dev.enqueue_comm(50.0, "sync");
  dev.advance(80.0, /*busy=*/true, "compute");  // compute is past the transfer
  const auto before = dev.stats();
  const double clock_before = dev.clock_us();
  EXPECT_EQ(dev.wait_comm_until(done, "sync"), 0.0);
  // Waiting on a timestamp later than anything enqueued is also a no-op.
  EXPECT_EQ(dev.wait_comm_until(done + 1000.0, "sync"), 0.0);
  EXPECT_EQ(dev.clock_us(), clock_before);
  EXPECT_EQ(dev.stats().exposed_comm_us, before.exposed_comm_us);
  EXPECT_EQ(dev.stats().busy_us, before.busy_us);
  EXPECT_EQ(dev.stats().overhead_us, before.overhead_us);
  EXPECT_EQ(dev.range_time_us("sync"), 0.0);
}

TEST(CommStreamTest, InterleavedWaitsPreserveExposedAccounting) {
  Device dev(v100(), ExecMode::kModelOnly);
  const double d1 = dev.enqueue_comm(30.0, "b0");  // completes at 30
  const double d2 = dev.enqueue_comm(40.0, "b1");  // serialized: completes at 70
  EXPECT_NEAR(d1, 30.0, 1e-9);
  EXPECT_NEAR(d2, 70.0, 1e-9);
  // Wait on the FIRST transfer only: exposes 30 (compute at 0), later
  // transfer keeps running.
  EXPECT_NEAR(dev.wait_comm_until(d1, "sync"), 30.0, 1e-9);
  EXPECT_NEAR(dev.clock_us(), 30.0, 1e-9);
  // Overlap 25 us of compute, then wait on the second: exposes only 15.
  dev.advance(25.0, /*busy=*/true, "update");
  EXPECT_NEAR(dev.wait_comm_until(d2, "sync"), 15.0, 1e-9);
  EXPECT_NEAR(dev.clock_us(), 70.0, 1e-9);
  // Exposed total equals the sum of the individual waits, attributed where
  // they happened; a final full drain has nothing left.
  EXPECT_NEAR(dev.stats().exposed_comm_us, 45.0, 1e-9);
  EXPECT_NEAR(dev.range_time_us("sync"), 45.0, 1e-9);
  EXPECT_NEAR(dev.sync_comm("sync"), 0.0, 1e-9);
  EXPECT_NEAR(dev.stats().comm_us, 70.0, 1e-9);
  EXPECT_EQ(dev.stats().comm_transfers, 2);
}

// --- step-graph capture & replay ---

TEST(StepGraphTest, CaptureRecordsAndReplayDropsLaunchGaps) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(720 * 1000), nullptr);      // 1.0 us exec
  dev.launch(bytes_kernel(2 * 720 * 1000), nullptr);  // 2.0 us exec
  StepGraph graph = dev.end_capture();
  ASSERT_TRUE(graph.valid);
  EXPECT_EQ(graph.kernel_launches, 2);
  EXPECT_NEAR(graph.kernel_exec_us, 3.0, 1e-9);
  // Capture charged eagerly: 2 launches x (4.5 + exec).
  EXPECT_NEAR(dev.clock_us(), 2 * 4.5 + 3.0, 1e-9);
  const double gap_before = dev.stats().launch_gap_us;

  const double t0 = dev.clock_us();
  dev.begin_replay(graph);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  dev.launch(bytes_kernel(2 * 720 * 1000), nullptr);
  dev.end_replay();
  // One graph launch (10 us on V100) + back-to-back exec, no per-kernel gap.
  EXPECT_NEAR(dev.clock_us() - t0, 10.0 + 3.0, 1e-9);
  EXPECT_EQ(dev.stats().launch_gap_us, gap_before);
  EXPECT_EQ(dev.stats().graph_replays, 1);
  EXPECT_EQ(dev.stats().replayed_launches, 2);
  EXPECT_NEAR(dev.stats().graph_launch_us, 10.0, 1e-9);
  EXPECT_EQ(dev.stats().launches, 4);  // kernel executions, eager + replayed
}

// --- bounded graph nodes: a kernel whose extent is a replay-time parameter ---

constexpr int64_t kOneUs = 720 * 1000;  // bytes_kernel size of 1 us on V100

TEST(StepGraphTest, BoundedNodeChargesLiveCostEagerCapturedAndReplayed) {
  Device dev(v100(), ExecMode::kModelOnly);
  const KernelDesc bound = bytes_kernel(4 * kOneUs), live = bytes_kernel(kOneUs);
  auto busy_delta = [&](const std::function<void()>& f) {
    const double before = dev.stats().busy_us;
    f();
    return dev.stats().busy_us - before;
  };
  const double eager = busy_delta([&] { dev.launch(bound, live, nullptr); });
  dev.begin_capture();
  const double captured = busy_delta([&] { dev.launch(bound, live, nullptr); });
  StepGraph graph = dev.end_capture();
  ASSERT_TRUE(graph.valid);
  EXPECT_TRUE(graph.nodes[0].bounded);
  EXPECT_NEAR(graph.kernel_exec_us, 4.0, 1e-9) << "the graph sums the bounds";
  dev.begin_replay(graph);
  const double replayed = busy_delta([&] { dev.launch(bound, live, nullptr); });
  dev.end_replay();
  EXPECT_NEAR(eager, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(captured, eager);
  EXPECT_DOUBLE_EQ(replayed, eager);
  EXPECT_EQ(dev.stats().bytes_moved, 3 * kOneUs) << "stats record the live bytes";
  EXPECT_EQ(dev.per_kernel().at("test.bytes").bytes, 3 * kOneUs);
}

TEST(StepGraphTest, BoundedReplayChargesExactlyTheLiveKernelTime) {
  Device dev(v100(), ExecMode::kModelOnly);
  const KernelDesc bound = bytes_kernel(4 * kOneUs);
  dev.begin_capture();
  dev.launch(bound, bytes_kernel(3 * kOneUs), nullptr);
  StepGraph graph = dev.end_capture();
  const KernelDesc smaller = bytes_kernel(kOneUs / 3);
  const double t0 = dev.clock_us();
  dev.begin_replay(graph);
  dev.launch(bound, smaller, nullptr);
  dev.end_replay();
  EXPECT_DOUBLE_EQ(dev.clock_us() - t0, 10.0 + dev.kernel_time_us(smaller));
}

TEST(StepGraphTest, BoundedLaunchRejectsLiveCostAboveItsBound) {
  Device dev(v100(), ExecMode::kModelOnly);
  const KernelDesc bound = bytes_kernel(kOneUs);
  dev.begin_capture();
  dev.launch(bound, bound, nullptr);
  StepGraph graph = dev.end_capture();
  KernelDesc more_flops = bound;
  more_flops.flops = 1.0;
  KernelDesc renamed = bound;
  renamed.name = "test.other";
  for (const KernelDesc& live : {bytes_kernel(2 * kOneUs), more_flops, renamed}) {
    dev.begin_replay(graph);
    EXPECT_THROW(dev.launch(bound, live, nullptr), Error) << live.name;
    dev.abort_graph();
  }
}

TEST(StepGraphTest, StaticAndBoundedNodesDoNotConsumeEachOther) {
  Device dev(v100(), ExecMode::kModelOnly);
  const KernelDesc d = bytes_kernel(kOneUs);
  dev.begin_capture();
  dev.launch(d, nullptr);
  const StepGraph static_graph = dev.end_capture();
  dev.begin_capture();
  dev.launch(d, d, nullptr);
  const StepGraph bounded_graph = dev.end_capture();

  dev.begin_replay(static_graph);
  EXPECT_THROW(dev.launch(d, d, nullptr), GraphError);
  dev.abort_graph();
  dev.begin_replay(bounded_graph);
  EXPECT_THROW(dev.launch(d, nullptr), GraphError);
  dev.abort_graph();
}

TEST(StepGraphTest, KernelSpikeMultipliesAReplayedBoundedKernel) {
  Device dev(v100(), ExecMode::kModelOnly);
  const KernelDesc bound = bytes_kernel(4 * kOneUs), live = bytes_kernel(kOneUs);
  dev.begin_capture();
  dev.launch(bound, live, nullptr);
  const StepGraph graph = dev.end_capture();
  FaultPlan plan;
  plan.add(FaultPlan::kernel_spike(/*step=*/0, "test.bytes", /*factor=*/8.0));
  FaultInjector injector(plan);
  injector.arm(0);
  dev.set_fault_injector(&injector);
  const double busy_before = dev.stats().busy_us;
  dev.begin_replay(graph);
  dev.launch(bound, live, nullptr);
  dev.end_replay();
  dev.set_fault_injector(nullptr);
  EXPECT_DOUBLE_EQ(dev.stats().busy_us - busy_before, 8.0 * dev.kernel_time_us(live));
  EXPECT_EQ(injector.kernel_spikes(), 1);
}

TEST(StepGraphTest, ReplayAttributesTimeToLiveRanges) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  {
    ScopedRange r(dev, "forward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
  }
  StepGraph graph = dev.end_capture();
  const double fw_before = dev.range_time_us("forward");
  dev.begin_replay(graph);
  {
    ScopedRange r(dev, "forward");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
  }
  dev.end_replay();
  // The replayed kernel's exec time still lands in the active range.
  EXPECT_NEAR(dev.range_time_us("forward") - fw_before, 1.0, 1e-9);
}

TEST(StepGraphTest, ReplayValidatesNodeSequence) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  StepGraph graph = dev.end_capture();

  // Mismatched descriptor.
  dev.begin_replay(graph);
  KernelDesc other = bytes_kernel(720 * 1000);
  other.name = "test.other";
  EXPECT_THROW(dev.launch(other, nullptr), Error);
  dev.abort_graph();

  // More launches than captured.
  dev.begin_replay(graph);
  dev.launch(bytes_kernel(720 * 1000), nullptr);
  EXPECT_THROW(dev.launch(bytes_kernel(720 * 1000), nullptr), Error);
  dev.abort_graph();

  // Fewer launches than captured.
  dev.begin_replay(graph);
  EXPECT_THROW(dev.end_replay(), Error);
  dev.abort_graph();
}

TEST(StepGraphTest, AllocatorStallPoisonsCapture) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.charge_alloc(/*cache_hit=*/true);  // cached hits are not stalls
  dev.launch(bytes_kernel(100), nullptr);
  dev.charge_alloc(/*cache_hit=*/false);  // cudaMalloc: poison
  dev.launch(bytes_kernel(100), nullptr);  // capture keeps charging eagerly
  StepGraph graph = dev.end_capture();
  EXPECT_FALSE(graph.valid);
  EXPECT_NE(graph.poison_reason.find("allocator stall"), std::string::npos);
  EXPECT_THROW(dev.begin_replay(graph), Error);
}

TEST(StepGraphTest, StreamSyncPoisonsCapture) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.enqueue_comm(10.0, "sync");
  dev.sync_comm("sync");
  StepGraph graph = dev.end_capture();
  EXPECT_FALSE(graph.valid);
  EXPECT_NE(graph.poison_reason.find("sync"), std::string::npos);
}

TEST(StepGraphTest, CommStatsConsistentUnderReplay) {
  // The same enqueue/wait schedule, eager vs replayed: comm bookkeeping is
  // identical; only launch gaps differ. Completion times are replay-time
  // parameters — the replayed wait exposes whatever the live clocks imply.
  auto run = [](bool replayed, StepGraph* captured) {
    Device dev(v100(), ExecMode::kModelOnly);
    if (replayed) dev.begin_replay(*captured);
    else dev.begin_capture();
    dev.launch(bytes_kernel(720 * 1000), nullptr);
    const double done = dev.enqueue_comm(20.0, "b0");
    const double exposed = dev.wait_comm_until(done, "sync");
    dev.launch(bytes_kernel(720 * 1000), nullptr);
    if (replayed) dev.end_replay();
    else *captured = dev.end_capture();
    return std::tuple{dev.stats().comm_transfers, dev.stats().comm_us,
                      dev.stats().exposed_comm_us, exposed};
  };
  StepGraph graph;
  const auto [n_eager, us_eager, exp_eager, wait_eager] = run(false, &graph);
  ASSERT_TRUE(graph.valid);
  const auto [n_replay, us_replay, exp_replay, wait_replay] = run(true, &graph);
  EXPECT_EQ(n_eager, n_replay);
  EXPECT_EQ(us_eager, us_replay);
  // The transfer starts at the (then-current) compute clock in both runs,
  // so an immediate wait exposes the full 20 us either way — and the
  // exposed-comm stat matches the returned wait exactly.
  EXPECT_NEAR(wait_eager, 20.0, 1e-9);
  EXPECT_NEAR(wait_replay, 20.0, 1e-9);
  EXPECT_EQ(exp_eager, wait_eager);
  EXPECT_EQ(exp_replay, wait_replay);
}

TEST(StepGraphTest, ResetAbortsGraphPhase) {
  Device dev(v100(), ExecMode::kModelOnly);
  dev.begin_capture();
  dev.launch(bytes_kernel(100), nullptr);
  dev.reset();
  EXPECT_FALSE(dev.capturing());
  dev.begin_capture();  // would throw if the phase leaked
  (void)dev.end_capture();
}

}  // namespace
}  // namespace ls2::simgpu
