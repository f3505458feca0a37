#include "memory/arena_allocator.h"

#include "simgpu/fault.h"

namespace ls2::mem {

namespace {
size_t align_up(size_t n) {
  return (n + ArenaAllocator::kAlign - 1) / ArenaAllocator::kAlign * ArenaAllocator::kAlign;
}
}  // namespace

ArenaAllocator::ArenaAllocator(simgpu::Device& device, size_t capacity_bytes, Backing backing)
    : DeviceAllocator(device, backing), capacity_(align_up(capacity_bytes)) {
  base_ = static_cast<char*>(device_malloc(capacity_));
  free_blocks_[0] = capacity_;
  // The whole arena counts as "in use" for the lifetime of training — that
  // is the deliberate trade of §IV-D and what Fig. 20 plots for LightSeq2.
  note_usage(static_cast<int64_t>(capacity_));
}

ArenaAllocator::~ArenaAllocator() {
  note_usage(-static_cast<int64_t>(capacity_));
  device_free(base_, capacity_);
}

void* ArenaAllocator::allocate(size_t bytes) {
  const size_t want = align_up(bytes);
  // Injected transient failure: the request is well within capacity, the
  // allocator just hiccups (driver retry, momentary fragmentation) — typed
  // distinctly from OutOfMemory so callers retry instead of resizing.
  if (simgpu::FaultInjector* fault = device_.fault_injector();
      fault != nullptr && fault->should_fail_alloc(device_.current_range())) {
    throw TransientAllocFailure(static_cast<int64_t>(want),
                                static_cast<int64_t>(used_),
                                static_cast<int64_t>(capacity_),
                                device_.current_range());
  }
  // First fit. The free map is keyed by offset, so this also prefers low
  // addresses, which keeps fragmentation down for the LIFO-ish lifetimes of
  // a training step.
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    if (it->second < want) continue;
    const size_t offset = it->first;
    const size_t remaining = it->second - want;
    free_blocks_.erase(it);
    if (remaining > 0) free_blocks_[offset + want] = remaining;
    used_ += want;
    if (used_ > high_water_) high_water_ = used_;
    if (offset + want > extent_) extent_ = offset + want;
    ++outstanding_;
    return base_ + offset;
  }
  throw OutOfMemory(static_cast<int64_t>(want), static_cast<int64_t>(used_),
                    static_cast<int64_t>(capacity_));
}

void ArenaAllocator::deallocate(void* ptr, size_t bytes) {
  const size_t want = align_up(bytes);
  const size_t offset = static_cast<size_t>(static_cast<char*>(ptr) - base_);
  LS2_CHECK_LE(offset + want, capacity_) << "foreign pointer returned to arena";
  used_ -= want;
  --outstanding_;
  // Insert and coalesce with neighbours.
  auto [it, inserted] = free_blocks_.emplace(offset, want);
  LS2_CHECK(inserted) << "double free in arena";
  if (it != free_blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == offset) {
      prev->second += it->second;
      free_blocks_.erase(it);
      it = prev;
    }
  }
  auto next = std::next(it);
  if (next != free_blocks_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_blocks_.erase(next);
  }
}

void ArenaAllocator::reset() {
  LS2_CHECK_EQ(outstanding_, 0) << "arena reset with live tensors";
  free_blocks_.clear();
  free_blocks_[0] = capacity_;
  used_ = 0;
}

}  // namespace ls2::mem
