// Shared-block planning for temporary tensors (§IV-D, Fig. 8).
//
// Each temporary tensor declares a lifetime [birth step, death step]. The
// planner assigns tensors with disjoint lifetimes to the same memory block
// (a "column" in the paper's figure), growing a block to the largest tensor
// it ever hosts. For the self-attention backward pass this yields exactly
// the paper's bound: 3·BLH + max(BL²N, 3·BLH) bytes instead of the naive
// 9·BLH + BL²N.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ls2::mem {

struct PlanTensor {
  std::string name;
  size_t bytes = 0;
  int birth = 0;  ///< first step in which the tensor is written
  int death = 0;  ///< last step in which the tensor is read
};

class BlockPlan {
 public:
  /// Plans placements greedily in birth order: a dying block becomes free at
  /// `death + 1`; a new tensor picks the free block needing the least
  /// growth, or opens a new block.
  explicit BlockPlan(std::vector<PlanTensor> tensors);

  /// Total bytes of all shared blocks (what must be allocated).
  size_t total_bytes() const { return total_bytes_; }
  /// What per-tensor allocation would have cost.
  size_t naive_bytes() const { return naive_bytes_; }
  int block_count() const { return static_cast<int>(block_sizes_.size()); }
  size_t block_size(int block) const { return block_sizes_[static_cast<size_t>(block)]; }
  int block_of(const std::string& name) const;

  /// Allocate the backing buffer; after this, tensor() serves views.
  void materialize(BufferAllocator* alloc = nullptr);
  bool materialized() const { return storage_.defined(); }

  /// View of `name`'s block with the requested shape/dtype (must fit the
  /// tensor's declared bytes).
  Tensor tensor(const std::string& name, Shape shape, DType dtype) const;

 private:
  struct Placement {
    int block = -1;
    size_t bytes = 0;
  };

  std::map<std::string, Placement> placements_;
  std::vector<size_t> block_sizes_;
  std::vector<size_t> block_offsets_;
  size_t total_bytes_ = 0;
  size_t naive_bytes_ = 0;
  Tensor storage_;
};

/// The lifetime table of Fig. 8 (self-attention backward) for batch B,
/// sequence length L, hidden size H, N heads, element size `elem` bytes.
/// Tensor names: dY1, dZ, dY2, dS, dV, dK, dQ, dQKV, dY3. It is the unfused
/// chain the baselines launch; LightSeq2's fused attention backward
/// (kern::attn_bw) has no dS and plans a smaller set (layers/attention.cc).
std::vector<PlanTensor> attention_backward_plan(int64_t B, int64_t L, int64_t H,
                                                int64_t N, size_t elem);

}  // namespace ls2::mem
