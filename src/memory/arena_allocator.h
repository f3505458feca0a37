// LightSeq2's memory strategy (§IV-D): reserve the maximal temporary
// capacity once before training (sized by a capacity scan over the training
// set), then serve every intermediate tensor from inside that region with a
// zero-cost first-fit free list — tensors whose lifetimes ended are recycled
// immediately (the generalisation of Fig. 8's shared blocks). Zero
// cudaMalloc/cudaFree traffic during training => flat memory profile
// (Fig. 20) and no allocator stalls (Fig. 21).
#pragma once

#include <cstdint>
#include <map>

#include "memory/device_allocator.h"

namespace ls2::mem {

class ArenaAllocator final : public DeviceAllocator {
 public:
  /// Every block is rounded up to this many bytes (cudaMalloc's alignment).
  static constexpr size_t kAlign = 256;

  /// Reserves `capacity_bytes` up front with a single device malloc.
  ArenaAllocator(simgpu::Device& device, size_t capacity_bytes,
                 Backing backing = Backing::kMalloc);
  ~ArenaAllocator() override;

  void* allocate(size_t bytes) override;
  void deallocate(void* ptr, size_t bytes) override;
  const char* name() const override { return "arena"; }
  /// One up-front reservation, stable addresses, zero device traffic per
  /// step — the arena is what makes a LightSeq2 step graph-capturable.
  bool capture_safe() const override { return true; }

  /// Sanity hook between steps: verifies everything was released and resets
  /// fragmentation to a single free block.
  void reset();

  size_t capacity() const { return capacity_; }
  /// Largest concurrently-live byte count — how tight the capacity scan was.
  size_t high_water() const { return high_water_; }
  /// Furthest end of any block served so far. First fit can strand free
  /// bytes between live blocks, so this — not the high water — is the
  /// capacity the same requests need: an arena at least this large places
  /// every block exactly where this one did.
  size_t extent() const { return extent_; }
  int64_t outstanding() const { return outstanding_; }

 private:
  char* base_ = nullptr;
  size_t capacity_ = 0;
  std::map<size_t, size_t> free_blocks_;  // offset -> size, coalesced
  size_t used_ = 0;
  size_t high_water_ = 0;
  size_t extent_ = 0;
  int64_t outstanding_ = 0;
};

}  // namespace ls2::mem
