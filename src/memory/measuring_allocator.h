// Peak-tracking heap allocator with no simulated-device cost. Used for the
// capacity scan (§IV-D): run one probe step over the largest batch through a
// MeasuringAllocator, read `peak_bytes()`, and size the real arena from it.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "common/check.h"
#include "tensor/tensor.h"

namespace ls2::mem {

class MeasuringAllocator final : public BufferAllocator {
 public:
  /// Counts every request rounded up to `align` bytes — the block size of
  /// the allocator being sized (ArenaAllocator::kAlign); 1 counts raw bytes.
  explicit MeasuringAllocator(size_t align = 1) : align_(align) {}

  void* allocate(size_t bytes) override {
    void* p = std::malloc(bytes == 0 ? 1 : bytes);
    LS2_CHECK(p != nullptr);
    in_use_ += counted(bytes);
    if (in_use_ > peak_) peak_ = in_use_;
    return p;
  }
  void deallocate(void* ptr, size_t bytes) override {
    in_use_ -= counted(bytes);
    std::free(ptr);
  }
  const char* name() const override { return "measuring"; }

  int64_t peak_bytes() const { return peak_; }
  int64_t bytes_in_use() const { return in_use_; }

 private:
  int64_t counted(size_t bytes) const {
    return static_cast<int64_t>((bytes + align_ - 1) / align_ * align_);
  }

  size_t align_;
  int64_t in_use_ = 0;
  int64_t peak_ = 0;
};

}  // namespace ls2::mem
