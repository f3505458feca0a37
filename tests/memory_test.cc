#include <gtest/gtest.h>

#include "memory/arena_allocator.h"
#include "memory/caching_allocator.h"
#include "memory/workspace.h"
#include "simgpu/device.h"
#include "simgpu/profile.h"

namespace ls2::mem {
namespace {

using simgpu::Device;
using simgpu::ExecMode;

class CachingAllocatorTest : public ::testing::Test {
 protected:
  Device dev{simgpu::generic(), ExecMode::kExecute};
};

TEST_F(CachingAllocatorTest, FirstAllocationIsAMiss) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1000);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(alloc.cache_misses(), 1);
  EXPECT_EQ(alloc.cache_hits(), 0);
  EXPECT_EQ(alloc.bytes_in_use(), 1024);  // rounded to 512B granule
  alloc.deallocate(p, 1000);
  EXPECT_EQ(alloc.bytes_in_use(), 0);
  EXPECT_EQ(alloc.cached_bytes(), 1024);
}

TEST_F(CachingAllocatorTest, ReuseIsAHitAndCheaper) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1000);
  alloc.deallocate(p, 1000);
  const double clock_before = dev.clock_us();
  void* q = alloc.allocate(900);  // same bucket -> cache hit
  EXPECT_EQ(q, p);
  EXPECT_EQ(alloc.cache_hits(), 1);
  const double hit_cost = dev.clock_us() - clock_before;
  EXPECT_NEAR(hit_cost, dev.profile().cached_alloc_us, 1e-9);
  alloc.deallocate(q, 900);
}

TEST_F(CachingAllocatorTest, GrowthWhenLargerRequestsArrive) {
  // Variable-length batches: each longer sequence forces a new high
  // watermark even though shorter blocks sit in the cache (Fig. 20).
  CachingAllocator alloc(dev);
  void* a = alloc.allocate(4 << 20);
  alloc.deallocate(a, 4 << 20);
  void* b = alloc.allocate(16 << 20);  // cached 4MB too small
  EXPECT_EQ(alloc.cache_misses(), 2);
  alloc.deallocate(b, 16 << 20);
  EXPECT_EQ(alloc.peak_bytes(), 16 << 20);
  EXPECT_EQ(alloc.cached_bytes(), (4 << 20) + (16 << 20));
}

TEST_F(CachingAllocatorTest, NoWastefulReuse) {
  CachingAllocator alloc(dev);
  void* big = alloc.allocate(32 << 20);
  alloc.deallocate(big, 32 << 20);
  // A tiny request must not burn the 32MB block (waste cap 2x).
  void* small = alloc.allocate(1024);
  EXPECT_NE(small, big);
  alloc.deallocate(small, 1024);
}

TEST_F(CachingAllocatorTest, HitOnLargerBlockFilesItWhole) {
  // A request served from a larger cached block must give the whole block
  // back: neither in-use nor cached bytes drift, and the block keeps
  // serving the request that made it.
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(2000);  // 2048 B block
  alloc.deallocate(p, 2000);
  void* q = alloc.allocate(1100);  // 1536 B bucket -> hits the 2048 B block
  EXPECT_EQ(q, p);
  EXPECT_EQ(alloc.bytes_in_use(), 2048);
  alloc.deallocate(q, 1100);
  EXPECT_EQ(alloc.bytes_in_use(), 0);
  EXPECT_EQ(alloc.cached_bytes(), 2048);
  const int64_t mallocs = alloc.device_malloc_count();
  void* r = alloc.allocate(2000);
  EXPECT_EQ(r, p);
  EXPECT_EQ(alloc.cache_hits(), 2);
  EXPECT_EQ(alloc.device_malloc_count(), mallocs);
  alloc.deallocate(r, 2000);
}

TEST_F(CachingAllocatorTest, RejectsForeignOrOversizedFree) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1000);  // 1024 B block
  int other = 0;
  EXPECT_THROW(alloc.deallocate(&other, 4), Error);
  EXPECT_THROW(alloc.deallocate(p, 2000), Error);
  alloc.deallocate(p, 1000);
  EXPECT_THROW(alloc.deallocate(p, 1000), Error);  // already freed
}

TEST_F(CachingAllocatorTest, ReleaseCachedFreesDeviceMemory) {
  CachingAllocator alloc(dev);
  void* p = alloc.allocate(1 << 20);
  alloc.deallocate(p, 1 << 20);
  const int64_t frees_before = alloc.device_free_count();
  alloc.release_cached();
  EXPECT_GT(alloc.device_free_count(), frees_before);
  EXPECT_EQ(alloc.cached_bytes(), 0);
}

TEST_F(CachingAllocatorTest, SimulatedOom) {
  CachingAllocator alloc(dev);  // generic profile: 16 GB
  EXPECT_THROW(alloc.allocate(size_t{20} << 30), OutOfMemory);
}

class ArenaAllocatorTest : public ::testing::Test {
 protected:
  Device dev{simgpu::generic(), ExecMode::kExecute};
};

TEST_F(ArenaAllocatorTest, SingleUpFrontDeviceMalloc) {
  ArenaAllocator arena(dev, 1 << 20);
  EXPECT_EQ(arena.device_malloc_count(), 1);
  void* a = arena.allocate(1000);
  void* b = arena.allocate(1000);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.device_malloc_count(), 1);  // still just the reservation
  arena.deallocate(a, 1000);
  arena.deallocate(b, 1000);
}

TEST_F(ArenaAllocatorTest, InUseIsFlatAtCapacity) {
  ArenaAllocator arena(dev, 1 << 20);
  EXPECT_EQ(arena.bytes_in_use(), 1 << 20);
  void* a = arena.allocate(5000);
  EXPECT_EQ(arena.bytes_in_use(), 1 << 20);  // no change during training
  arena.deallocate(a, 5000);
}

TEST_F(ArenaAllocatorTest, ResetRewindsBumpPointer) {
  ArenaAllocator arena(dev, 4096);
  void* a = arena.allocate(2048);
  arena.deallocate(a, 2048);
  arena.reset();
  void* b = arena.allocate(2048);
  EXPECT_EQ(a, b);  // same bytes reused across steps
  arena.deallocate(b, 2048);
}

TEST_F(ArenaAllocatorTest, ResetWithLiveTensorsThrows) {
  ArenaAllocator arena(dev, 4096);
  void* a = arena.allocate(100);
  EXPECT_THROW(arena.reset(), Error);
  arena.deallocate(a, 100);
  EXPECT_NO_THROW(arena.reset());
}

TEST_F(ArenaAllocatorTest, ExhaustionThrowsOom) {
  ArenaAllocator arena(dev, 4096);
  (void)arena.allocate(4096);
  EXPECT_THROW(arena.allocate(1), OutOfMemory);
}

TEST_F(ArenaAllocatorTest, HighWaterTracksTightness) {
  ArenaAllocator arena(dev, 1 << 20);
  void* a = arena.allocate(1000);
  arena.deallocate(a, 1000);
  arena.reset();
  void* b = arena.allocate(3000);
  arena.deallocate(b, 3000);
  EXPECT_GE(arena.high_water(), 3000u);
  EXPECT_LT(arena.high_water(), 4096u);
}

TEST(WorkspaceTest, LinksAreViewsIntoOneBuffer) {
  Workspace ws;
  ws.add("w1", Shape{4, 4}, DType::kF16);
  ws.add("b1", Shape{4}, DType::kF16);
  ws.freeze();
  Tensor w1 = ws.get("w1");
  Tensor b1 = ws.get("b1");
  EXPECT_EQ(w1.shape(), (Shape{4, 4}));
  EXPECT_EQ(b1.shape(), (Shape{4}));
  // Writing through the flat view must be visible through the links.
  Tensor flat = ws.flat();
  flat.fill_(1.0f);
  EXPECT_EQ(w1.item(0), 1.0f);
  EXPECT_EQ(b1.item(3), 1.0f);
}

TEST(WorkspaceTest, FlatCoversAllParameters) {
  Workspace ws;
  ws.add("a", Shape{3}, DType::kF16);  // 6 bytes -> padded to 16
  ws.add("b", Shape{5}, DType::kF16);
  ws.freeze();
  EXPECT_EQ(ws.total_elements(), 8);
  EXPECT_EQ(ws.flat().numel(), static_cast<int64_t>(ws.total_bytes() / 2));
}

TEST(WorkspaceTest, DuplicateAndMissingNamesThrow) {
  Workspace ws;
  ws.add("p", Shape{2}, DType::kF32);
  EXPECT_THROW(ws.add("p", Shape{2}, DType::kF32), Error);
  ws.freeze();
  EXPECT_THROW(ws.get("q"), Error);
  EXPECT_TRUE(ws.contains("p"));
  EXPECT_FALSE(ws.contains("q"));
}

TEST(WorkspaceTest, AddAfterFreezeThrows) {
  Workspace ws;
  ws.add("p", Shape{2}, DType::kF32);
  ws.freeze();
  EXPECT_THROW(ws.add("q", Shape{2}, DType::kF32), Error);
}

TEST(WorkspaceTest, MixedDtypeForbidsFlat) {
  Workspace ws;
  ws.add("p", Shape{2}, DType::kF32);
  ws.add("m", Shape{2}, DType::kF16);
  ws.freeze();
  EXPECT_THROW(ws.flat(), Error);
  EXPECT_NO_THROW(ws.get("m"));
}

}  // namespace
}  // namespace ls2::mem
