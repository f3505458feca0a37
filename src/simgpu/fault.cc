#include "simgpu/fault.h"

#include "tensor/random.h"

namespace ls2::simgpu {

FaultEvent FaultPlan::device_loss(int64_t step, int rank, std::string site) {
  FaultEvent e;
  e.kind = FaultKind::kDeviceLoss;
  e.step = step;
  e.rank = rank;
  e.site = std::move(site);
  return e;
}

FaultEvent FaultPlan::straggler(int64_t step, double factor) {
  FaultEvent e;
  e.kind = FaultKind::kStragglerLink;
  e.step = step;
  e.factor = factor;
  return e;
}

FaultEvent FaultPlan::kernel_spike(int64_t step, std::string site, double factor,
                                   int count) {
  FaultEvent e;
  e.kind = FaultKind::kKernelSpike;
  e.step = step;
  e.site = std::move(site);
  e.factor = factor;
  e.count = count;
  return e;
}

FaultEvent FaultPlan::alloc_fail(int64_t step, int count, std::string site) {
  FaultEvent e;
  e.kind = FaultKind::kAllocFail;
  e.step = step;
  e.count = count;
  e.site = std::move(site);
  return e;
}

FaultEvent FaultPlan::grad_corrupt(int64_t step, size_t byte_lo, size_t byte_hi) {
  LS2_CHECK(byte_hi > byte_lo) << "grad_corrupt: empty byte range";
  FaultEvent e;
  e.kind = FaultKind::kGradCorrupt;
  e.step = step;
  e.byte_lo = byte_lo;
  e.byte_hi = byte_hi;
  return e;
}

FaultPlan& FaultPlan::kernel_spike_window(int64_t step_lo, int64_t step_hi,
                                          std::string site, double factor) {
  LS2_CHECK(step_hi > step_lo) << "kernel_spike_window: empty step range";
  for (int64_t step = step_lo; step < step_hi; ++step)
    add(kernel_spike(step, site, factor, /*count=*/-1));
  return *this;
}

FaultPlan FaultPlan::random_device_loss(uint64_t seed, double rate, int64_t steps,
                                        int ranks) {
  LS2_CHECK(rate >= 0.0 && rate <= 1.0) << "failure rate must be in [0,1], got " << rate;
  LS2_CHECK_GE(ranks, 1) << "random_device_loss needs at least one rank";
  const Rng rng(seed);
  FaultPlan plan;
  // Step 0 is spared: there is no checkpoint to recover to before the first
  // completed step, so a loss there models provisioning failure, not MTBF.
  for (int64_t step = 1; step < steps; ++step) {
    if (static_cast<double>(rng.uniform(/*stream=*/1, static_cast<uint64_t>(step))) >= rate)
      continue;
    const int rank = static_cast<int>(
        rng.randint(/*stream=*/2, static_cast<uint64_t>(step), ranks));
    plan.add(device_loss(step, rank));
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, double collective_timeout_us)
    : timeout_us_(collective_timeout_us) {
  LS2_CHECK(timeout_us_ > 0) << "collective timeout must be positive";
  slots_.reserve(plan.events.size());
  for (auto& e : plan.events) {
    Slot s;
    s.remaining = e.count;
    s.e = std::move(e);
    slots_.push_back(std::move(s));
  }
}

void FaultInjector::arm(int64_t global_step) {
  armed_step_ = global_step;
  // Occurrence budgets are per-arm: a replayed step gets the same number of
  // chances as the original (one-shot `fired` flags are what prevent refire).
  for (auto& s : slots_)
    if (armed(s)) s.remaining = s.e.count;
}

namespace {
bool site_matches(const std::string& site, const std::string& name) {
  return site.empty() || name.find(site) != std::string::npos;
}
}  // namespace

double FaultInjector::on_kernel(const std::string& kernel_name) {
  double mult = 1.0;
  for (auto& s : slots_) {
    if (!armed(s) || !site_matches(s.e.site, kernel_name)) continue;
    if (s.e.kind == FaultKind::kKernelSpike) {
      if (s.remaining == 0) continue;
      if (s.remaining > 0) --s.remaining;
      if (s.remaining == 0) s.fired = true;
      mult *= s.e.factor;
      ++kernel_spikes_;
    } else if (s.e.kind == FaultKind::kDeviceLoss && s.e.rank == 0) {
      s.fired = true;
      throw DeviceLostError("simgpu: device lost at step " +
                            std::to_string(armed_step_) + " in kernel '" +
                            kernel_name + "' (injected)");
    }
  }
  return mult;
}

double FaultInjector::comm_factor() const {
  double mult = 1.0;
  for (const auto& s : slots_)
    if (armed(s) && s.e.kind == FaultKind::kStragglerLink) mult *= s.e.factor;
  return mult;
}

bool FaultInjector::should_fail_alloc(const std::string& active_range) {
  for (auto& s : slots_) {
    if (!armed(s) || s.e.kind != FaultKind::kAllocFail) continue;
    if (!site_matches(s.e.site, active_range) || s.remaining == 0) continue;
    if (s.remaining > 0) --s.remaining;
    if (s.remaining == 0) s.fired = true;
    return true;
  }
  return false;
}

void FaultInjector::fire_sync_faults() {
  for (auto& s : slots_) {
    if (!armed(s) || s.e.kind != FaultKind::kGradCorrupt) continue;
    s.fired = true;
    if (sync_sink_) sync_sink_(s.e);
  }
}

const FaultEvent* FaultInjector::take_peer_loss() {
  for (auto& s : slots_) {
    if (!armed(s) || s.e.kind != FaultKind::kDeviceLoss || s.e.rank == 0) continue;
    s.fired = true;
    return &s.e;
  }
  return nullptr;
}

void FaultInjector::note_exposed_wait(double exposed_us) {
  if (exposed_us <= timeout_us_) return;
  ++timeout_exceedances_;
  for (const auto& s : slots_) {
    if (s.e.kind != FaultKind::kStragglerLink || s.e.step != armed_step_) continue;
    if (!straggler_steps_.empty() && straggler_steps_.back() == armed_step_) return;
    straggler_steps_.push_back(armed_step_);
    return;
  }
}

int FaultInjector::fired(FaultKind kind) const {
  int n = 0;
  for (const auto& s : slots_)
    if (s.fired && s.e.kind == kind) ++n;
  return n;
}

}  // namespace ls2::simgpu
