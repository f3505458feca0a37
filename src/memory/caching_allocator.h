// PyTorch/Fairseq-style caching allocator (the baseline memory strategy).
//
// Requests are rounded up to size buckets. A freed block goes back to a free
// list instead of cudaFree; a request is served from the free list when a
// large-enough cached block exists (cheap), otherwise by a real cudaMalloc
// (expensive). Because variable-length batches keep arriving with new high
// watermarks, physical memory grows in steps over training — exactly the
// Fairseq behaviour in Fig. 20 — and the malloc stalls depress utilisation
// (Fig. 21).
#pragma once

#include <map>
#include <mutex>
#include <unordered_map>

#include "memory/device_allocator.h"

namespace ls2::mem {

class CachingAllocator final : public DeviceAllocator {
 public:
  explicit CachingAllocator(simgpu::Device& device, Backing backing = Backing::kMalloc)
      : DeviceAllocator(device, backing) {}
  ~CachingAllocator() override;

  void* allocate(size_t bytes) override;
  /// Files the block under the size allocate() handed out, which a cache
  /// hit may make up to twice the request. Throws ls2::Error for a pointer
  /// this allocator did not hand out, or for more bytes than its block holds.
  void deallocate(void* ptr, size_t bytes) override;
  const char* name() const override { return "caching"; }
  /// Never certified: a cold request (or a free-list re-bucketing) calls
  /// device malloc mid-step, which poisons any in-progress graph capture.
  bool capture_safe() const override { return false; }

  /// cudaFree everything in the cache (PyTorch's empty_cache()).
  void release_cached();

  int64_t cached_bytes() const { return cached_bytes_; }
  int64_t cache_hits() const { return hits_; }
  int64_t cache_misses() const { return misses_; }

 private:
  static size_t round_bucket(size_t bytes);

  // block size -> free blocks of exactly that size
  std::multimap<size_t, void*> free_blocks_;
  // handed-out block -> its size
  std::unordered_map<void*, size_t> live_blocks_;
  int64_t cached_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  std::mutex mu_;
};

}  // namespace ls2::mem
