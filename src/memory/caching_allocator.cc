#include "memory/caching_allocator.h"

namespace ls2::mem {

CachingAllocator::~CachingAllocator() {
  for (auto& [size, ptr] : free_blocks_) device_free(ptr, size);
  free_blocks_.clear();
}

size_t CachingAllocator::round_bucket(size_t bytes) {
  // PyTorch rounds small allocations to 512B and large ones to 2MB granules.
  constexpr size_t kSmallGranule = 512;
  constexpr size_t kLargeGranule = 2u << 20;
  if (bytes == 0) return kSmallGranule;
  if (bytes < (1u << 20)) return (bytes + kSmallGranule - 1) / kSmallGranule * kSmallGranule;
  return (bytes + kLargeGranule - 1) / kLargeGranule * kLargeGranule;
}

void* CachingAllocator::allocate(size_t bytes) {
  const size_t bucket = round_bucket(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = free_blocks_.lower_bound(bucket);
  // Reuse a cached block if it's not wastefully large (PyTorch splits; we
  // approximate with a 2x waste cap).
  if (it != free_blocks_.end() && it->first <= bucket * 2) {
    void* ptr = it->second;
    const size_t got = it->first;
    free_blocks_.erase(it);
    cached_bytes_ -= static_cast<int64_t>(got);
    ++hits_;
    device_.charge_alloc(/*cache_hit=*/true);
    live_blocks_.emplace(ptr, got);
    note_usage(static_cast<int64_t>(got));
    return ptr;
  }
  ++misses_;
  void* ptr = device_malloc(bucket);
  live_blocks_.emplace(ptr, bucket);
  note_usage(static_cast<int64_t>(bucket));
  return ptr;
}

void CachingAllocator::deallocate(void* ptr, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_blocks_.find(ptr);
  LS2_CHECK(it != live_blocks_.end()) << "caching allocator: free of a pointer it did not hand out";
  const size_t size = it->second;
  LS2_CHECK(bytes <= size) << "caching allocator: free of " << bytes << " B from a " << size
                           << " B block";
  live_blocks_.erase(it);
  free_blocks_.emplace(size, ptr);
  cached_bytes_ += static_cast<int64_t>(size);
  note_usage(-static_cast<int64_t>(size));
}

void CachingAllocator::release_cached() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [size, ptr] : free_blocks_) device_free(ptr, size);
  free_blocks_.clear();
  cached_bytes_ = 0;
}

}  // namespace ls2::mem
