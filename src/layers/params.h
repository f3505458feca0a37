// Parameter registry.
//
// Layers declare named parameters during construction; the registry then
// materialises them either as one contiguous workspace (LightSeq2's
// "symbolic tensor linking": every parameter/gradient is a view into a
// single buffer, enabling the one-launch trainer of §IV-C) or as individual
// tensors (the baseline frameworks). Initialisation is policy-independent
// so different systems start from identical weights.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "memory/workspace.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace ls2::layers {

enum class Init {
  kZero,
  kXavier,   ///< uniform(-a, a), a = sqrt(6/(fan_in+fan_out)) for matrices
  kNormal,   ///< N(0, 0.02) — embedding tables
  kOne,      ///< LayerNorm gain
};

/// How one shard of a tensor-parallel parameter relates to the full tensor
/// (DESIGN.md §7). `dim` 0 slices rows (column-parallel layers), `dim` 1
/// slices columns (row-parallel layers). `groups` handles packed row
/// layouts: the full rows are `groups` equal blocks (QKV projections pack
/// G=3, the layer-batched cross-K/V weight packs G=2·layers) and the shard
/// takes its slice WITHIN each block, so "shard by heads" stays one spec.
struct ShardSpec {
  int dim = 0;
  int64_t groups = 1;
  int index = 0;
  int count = 1;
  bool sharded() const { return count > 1; }
};

class ParamRegistry;

/// Tensor-parallel declaration context threaded through layer configs.
/// `size` is the TP degree; `peers` (when non-null) is the heap-side
/// registry holding the shards of ranks 1..size-1 — null means only rank
/// 0's shard exists (timing/bench runs, which never execute kernel bodies).
struct TpDecl {
  int size = 1;
  ParamRegistry* peers = nullptr;
  bool enabled() const { return size > 1; }
};

/// Copy the `spec` shard of `full` into `shard` (both dense, same dtype).
void copy_shard_from_full(const Tensor& full, const Tensor& shard, const ShardSpec& spec);
/// Scatter `shard` back into its slice of `full`.
void copy_full_from_shard(const Tensor& shard, const Tensor& full, const ShardSpec& spec);
/// The shard's own shape: `full_shape` with dimension `spec.dim` divided by
/// `spec.count` (checked for divisibility, per group along dim 0).
Shape shard_shape(const Shape& full_shape, const ShardSpec& spec);

/// Opaque handle to a registered parameter.
struct ParamRef {
  int index = -1;
  bool valid() const { return index >= 0; }
};

/// Half-open range [begin, end) of parameter declaration indices — the unit
/// in which models report gradient readiness during backward.
struct ParamRange {
  int begin = 0;
  int end = 0;
  bool empty() const { return begin >= end; }
};

class ParamRegistry {
 public:
  /// Declare a parameter (before materialize()).
  ParamRef declare(const std::string& name, Shape shape, Init init);

  /// Declare one SHARD of a tensor-parallel parameter whose full shape is
  /// `full_shape`; the stored tensor has `shard_shape(full_shape, spec)`.
  /// Initialisation draws the FULL tensor (Xavier fans and RNG stream come
  /// from the full spec) and keeps only this shard's slice, so shards of a
  /// logical parameter reassemble bitwise into the unsharded init.
  /// `init_stream` pins the RNG stream; -1 uses this declaration's own
  /// index — right for the rank-0/device registry, whose declarations match
  /// the unsharded model one-to-one. Peer registries pass the rank-0
  /// sibling's stream (9000 + its declaration index) explicitly.
  ParamRef declare_sharded(const std::string& name, Shape full_shape, Init init,
                           const ShardSpec& spec, int64_t init_stream = -1);

  /// Create storage. `contiguous` selects workspace linking (LightSeq2) vs
  /// per-tensor buffers (baselines). Initialisation uses `rng` streams
  /// derived from declaration order, so it is identical either way.
  void materialize(DType dtype, bool contiguous, const Rng& rng,
                   BufferAllocator* alloc = nullptr);
  bool materialized() const { return materialized_; }
  bool contiguous() const { return contiguous_; }
  DType dtype() const { return dtype_; }

  Tensor value(ParamRef ref) const;
  Tensor grad(ParamRef ref) const;
  const std::string& name(ParamRef ref) const;
  Shape shape(ParamRef ref) const;
  /// Shard metadata ({.count = 1} for plain declarations).
  const ShardSpec& shard_spec(ParamRef ref) const;
  /// The logical (pre-sharding) shape; equals shape() when unsharded.
  const Shape& full_shape(ParamRef ref) const;

  int size() const { return static_cast<int>(specs_.size()); }
  int64_t total_elements() const;

  /// Range of every param declared since `begin` (= a size() captured before
  /// constructing a component) — the idiom models use to record each
  /// component's params for grad-ready reporting:
  ///   const int mark = params.size();
  ///   ... declare the component's params ...
  ///   range = params.range_since(mark);
  ParamRange range_since(int begin) const { return {begin, size()}; }

  /// Flat views over ALL parameters / gradients (workspace mode only) — the
  /// tensors the fused trainer updates in one launch.
  Tensor flat_values() const;
  Tensor flat_grads() const;

  /// Byte span [first, second) of one parameter's gradient inside the flat
  /// gradient buffer, including its trailing alignment padding: consecutive
  /// params' spans tile the buffer exactly. In per-tensor mode the spans are
  /// cumulative unpadded sizes over a *conceptual* flat buffer (no views
  /// exist, but bucket sizing still works).
  std::pair<size_t, size_t> grad_byte_span(int index) const;
  /// Total bytes of the (real or conceptual) flat gradient buffer.
  size_t flat_grad_bytes() const;
  /// View of the gradient bytes [begin, end) — one bucket's communication
  /// payload. Workspace mode only.
  Tensor grad_byte_view(size_t begin, size_t end) const;
  /// View of the parameter VALUE bytes [begin, end). The value workspace has
  /// the same slot layout as the gradient workspace, so a gradient byte range
  /// addresses exactly the corresponding parameters' values — what a
  /// range-granular trainer updates. Workspace mode only.
  Tensor value_byte_view(size_t begin, size_t end) const;
  /// Declaration indices of every parameter whose gradient byte span
  /// intersects [begin, end) — the tensor-intersection fallback per-tensor
  /// trainers use to honour a byte-range update request. Works in both
  /// layout modes (per-tensor registries use the conceptual spans).
  ParamRange params_in_byte_range(size_t begin, size_t end) const;

  /// Grad-ready hook (overlapped data-parallel sync): models fire this as
  /// each layer's backward completes, meaning the gradients of params
  /// [range.begin, range.end) are FINAL (no further accumulation). The
  /// bucketer (src/dist/bucket.h) listens, launches each bucket's
  /// all-reduce as soon as all of its params are ready, and plans the next
  /// step's buckets in units of these ranges.
  using GradReadyFn = std::function<void(const ParamRange&)>;
  void set_grad_ready_callback(GradReadyFn fn) { grad_ready_ = std::move(fn); }
  void clear_grad_ready_callback() { grad_ready_ = nullptr; }
  bool has_grad_ready_callback() const { return static_cast<bool>(grad_ready_); }
  /// No-op when no callback is installed, so models call it unconditionally.
  void notify_grad_ready(const ParamRange& range) const;

  /// Zero every gradient buffer (bookkeeping only; systems charge their own
  /// zeroing kernels).
  void zero_grads() const;

  /// Iterate (name, value, grad) — per-tensor trainers and checkpointing.
  void for_each(const std::function<void(const std::string&, Tensor, Tensor)>& fn) const;

 private:
  struct Spec {
    std::string name;
    Shape shape;       ///< stored (shard) shape
    Init init;
    Shape full_shape;  ///< logical shape (== shape when unsharded)
    ShardSpec shard;
    int64_t init_stream = -1;  ///< >= 0 pins the RNG stream (peer shards)
  };

  void init_tensor(const Tensor& t, const Spec& spec, const Rng& rng, uint64_t stream) const;

  std::vector<Spec> specs_;
  std::vector<size_t> grad_offsets_;  // n+1 cumulative gradient byte offsets
  GradReadyFn grad_ready_;
  std::vector<Tensor> values_;  // per-tensor mode
  std::vector<Tensor> grads_;
  mem::Workspace value_ws_;  // workspace mode
  mem::Workspace grad_ws_;
  bool materialized_ = false;
  bool contiguous_ = false;
  DType dtype_ = DType::kF32;
};

}  // namespace ls2::layers
