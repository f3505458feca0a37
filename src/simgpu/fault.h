// Deterministic fault injection for the simulated device (DESIGN.md §10).
//
// At fleet scale failures are the steady state, not the exception: ranks
// die mid-step, links degrade, kernels straggle, allocators hiccup, and
// gradients arrive corrupted. A `FaultPlan` schedules such events by
// (step, rank, site) — seeded and fully deterministic, so every recovery
// test replays bitwise — and a `FaultInjector` installed on a Device arms
// one step's events at a time and fires them from the device's own hook
// points, charging their cost honestly on the timeline:
//
//  * kDeviceLoss rank 0   — this device dies: the matching kernel launch
//    throws DeviceLostError mid-step (work already charged stays charged).
//  * kDeviceLoss rank > 0 — a PEER dies. Locally nothing happens until the
//    next sync point (sync_comm / wait_comm_until / an explicit
//    Device::at_sync_point), where the collective times out: the timeout is
//    charged as idle wait, then PeerLostError is thrown — detection is
//    never free and never earlier than a real NCCL timeout would be.
//  * kStragglerLink       — every comm transfer enqueued this step is
//    stretched by `factor`; the grown exposed wait at the sync point is how
//    the straggler becomes *detectable* (exposed > collective timeout).
//  * kKernelSpike         — a matching kernel's modeled latency is
//    multiplied by `factor` (transient thermal/ECC stall).
//  * kAllocFail           — the next `count` arena allocations (optionally
//    gated on an active device range, e.g. "serve.decode") throw
//    mem::TransientAllocFailure instead of succeeding.
//  * kGradCorrupt         — a NaN burst lands in gradient bytes
//    [byte_lo, byte_hi) at the step's first sync point (the moment averaged
//    gradients would materialize); the injector only keeps the schedule,
//    the recovery harness supplies the sink that writes the NaNs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"

namespace ls2::simgpu {

/// This simulated rank died mid-step (thrown from a kernel launch).
class DeviceLostError : public Error {
 public:
  explicit DeviceLostError(const std::string& what) : Error(what) {}
};

/// A remote rank died; detected locally when a collective timed out.
class PeerLostError : public Error {
 public:
  PeerLostError(const std::string& what, int rank) : Error(what), lost_rank(rank) {}
  int lost_rank = 0;
};

enum class FaultKind {
  kDeviceLoss,     ///< kill a rank (0 = this device, >0 = a peer)
  kStragglerLink,  ///< multiply comm-transfer durations by `factor`
  kKernelSpike,    ///< multiply a matching kernel's latency by `factor`
  kAllocFail,      ///< fail the next `count` arena allocations
  kGradCorrupt,    ///< NaN burst into gradient bytes [byte_lo, byte_hi)
};

struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceLoss;
  int64_t step = 0;  ///< global training (or serving) step the event arms at
  int rank = 0;      ///< kDeviceLoss: which rank dies (0 = this device)
  /// Site filter: kernel-name substring (kKernelSpike / rank-0 kDeviceLoss)
  /// or active device-range substring (kAllocFail). Empty matches anything.
  std::string site;
  double factor = 4.0;  ///< latency multiplier (straggler / spike)
  /// How many matching occurrences fire (allocations for kAllocFail,
  /// launches for kKernelSpike). -1 = every occurrence of the armed step.
  int count = 1;
  size_t byte_lo = 0, byte_hi = 0;  ///< kGradCorrupt: flat-grad byte range
};

/// A deterministic schedule of fault events. Build one by hand with the
/// factory helpers, or draw a seeded random failure schedule for MTBF
/// sweeps — either way the plan is a pure function of its inputs.
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& add(FaultEvent e) {
    events.push_back(std::move(e));
    return *this;
  }

  static FaultEvent device_loss(int64_t step, int rank, std::string site = "");
  static FaultEvent straggler(int64_t step, double factor);
  static FaultEvent kernel_spike(int64_t step, std::string site, double factor,
                                 int count = 1);
  static FaultEvent alloc_fail(int64_t step, int count = 1, std::string site = "");
  static FaultEvent grad_corrupt(int64_t step, size_t byte_lo, size_t byte_hi);

  /// A sustained straggler: every matching kernel launch of every step in
  /// [step_lo, step_hi) is stretched by `factor` (count=-1 per step). The
  /// fleet bench pins this on one replica to measure hedging's p99 rescue.
  FaultPlan& kernel_spike_window(int64_t step_lo, int64_t step_hi, std::string site,
                                 double factor);

  /// Seeded random device-loss schedule: each step in [1, steps) loses one
  /// of `ranks` ranks with probability `rate` — the MTBF knob of the
  /// fig_fault recovery sweep. Deterministic from `seed`.
  static FaultPlan random_device_loss(uint64_t seed, double rate, int64_t steps,
                                      int ranks);
};

/// Runtime driver of a FaultPlan. The recovery harness arms it once per
/// global step (`arm`), the Device consults it from launch / comm / sync /
/// alloc hook points, and after the run it doubles as the fault ledger
/// (what fired, and at which steps a straggler was detected).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, double collective_timeout_us = 5000.0);

  /// Arm `global_step`'s events. Fired one-shot events stay fired across
  /// re-arms, so a rolled-back-and-replayed step does not refail.
  void arm(int64_t global_step);
  double collective_timeout_us() const { return timeout_us_; }

  /// Sink invoked (from the device's sync point) for each pending
  /// kGradCorrupt event — the harness supplies the NaN writer, since only
  /// it can reach the parameter registry. Layering: simgpu schedules, the
  /// training layer mutates.
  using SyncSink = std::function<void(const FaultEvent&)>;
  void set_sync_sink(SyncSink sink) { sync_sink_ = std::move(sink); }

  // --- Device hook points ---
  /// Latency multiplier for this launch; throws DeviceLostError when an
  /// armed rank-0 kDeviceLoss matches the kernel name.
  double on_kernel(const std::string& kernel_name);
  /// Multiplier applied to comm-transfer durations enqueued this step.
  double comm_factor() const;
  /// True when an armed kAllocFail matches `active_range` and has
  /// occurrences left (consumes one).
  bool should_fail_alloc(const std::string& active_range);
  /// Fire pending sync-scoped faults (grad corruption) — called by the
  /// device at each sync point, before the wait.
  void fire_sync_faults();
  /// The armed peer-loss event, marking it fired — or nullptr. The device
  /// charges the collective timeout and throws PeerLostError.
  const FaultEvent* take_peer_loss();
  /// Detection bookkeeping: the device reports each sync point's exposed
  /// wait; an exposed wait beyond the collective timeout on a stragglered
  /// step is a straggler DETECTION (recorded once per step).
  void note_exposed_wait(double exposed_us);

  // --- ledger ---
  int fired(FaultKind kind) const;
  /// Total kernel launches a kKernelSpike stretched (count=-1 windows never
  /// mark `fired`, so this is the honest occurrence ledger for them).
  int64_t kernel_spikes() const { return kernel_spikes_; }
  int64_t timeout_exceedances() const { return timeout_exceedances_; }
  int stragglers_detected() const { return static_cast<int>(straggler_steps_.size()); }
  const std::vector<int64_t>& straggler_steps() const { return straggler_steps_; }

 private:
  struct Slot {
    FaultEvent e;
    bool fired = false;
    int remaining = 1;  ///< occurrences left (< 0 = unlimited this step)
  };

  bool armed(const Slot& s) const { return !s.fired && s.e.step == armed_step_; }

  std::vector<Slot> slots_;
  double timeout_us_;
  int64_t armed_step_ = -1;
  SyncSink sync_sink_;
  std::vector<int64_t> straggler_steps_;
  int64_t timeout_exceedances_ = 0;
  int64_t kernel_spikes_ = 0;
};

}  // namespace ls2::simgpu
