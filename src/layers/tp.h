// Tensor-parallel parameter handles for layers (DESIGN.md §7).
//
// The repo simulates rank 0 of the TP group. Parameters are STORED sharded
// — rank 0's shard in the model's device registry (so bucketing, the flat
// trainer, memory accounting and checkpoints all see one rank's bytes),
// peer shards in a heap-side registry when numerics are simulated — and
// kernels are CHARGED at shard scale with TP collectives on the comm
// stream. The NUMERICS run on full tensors assembled from the shards:
// that is bitwise what real sharded arithmetic would produce, because
//
//   * column-parallel outputs / row-parallel inputs are plain slices, and
//   * the row-parallel partial-sum reduction is simulated as an IN-ORDER
//     ring: partials accumulate in ascending rank order, which is exactly
//     the host GEMM's ascending-k accumulation over the reassembled k dim
//     (proven bitwise by tensor_parallel_test's ShardedGemmTest.ColumnAndRowShardingMatchFullBitwise).
//
// TpParam is the per-layer handle: `value()` yields the full weight
// (assembled when sharded; the registry tensor otherwise), `grad()` opens a
// gather -> accumulate -> scatter scope so backward kernels accumulate into
// gradients exactly as in the unsharded model, with the results landing in
// the shards.
#pragma once

#include <string>
#include <vector>

#include "layers/layer_context.h"
#include "layers/params.h"

namespace ls2::layers {

class TpParam {
 public:
  TpParam() = default;

  /// Wrap an existing plain (replicated or tp==1) declaration.
  static TpParam plain(ParamRegistry& reg, ParamRef ref);

  /// Declare a logical parameter, sharded across `tp.size` ranks along
  /// `dim` (with `groups` packed row groups when dim == 0). With tp.size ==
  /// 1 this is exactly a plain declare — same name, same stream. Rank 0's
  /// shard lands in `reg` under the plain name; peers (when tp.peers is
  /// set) land in the peer registry as name.tp<r> with rank 0's RNG stream,
  /// so all shards reassemble bitwise into the unsharded initialisation.
  static TpParam declare(ParamRegistry& reg, const TpDecl& tp, const std::string& name,
                         Shape full_shape, Init init, int dim = 0, int64_t groups = 1);

  bool valid() const { return reg_ != nullptr; }
  bool sharded() const { return shard_count_ > 1; }
  int shard_count() const { return shard_count_; }
  /// Rank 0's declaration — the handle bucketing/checkpointing sees.
  ParamRef rank0() const { return ref_; }
  const Shape& full_shape() const;

  /// The FULL weight for this step's math: the registry tensor when
  /// unsharded; otherwise a heap scratch assembled from the shards (the
  /// assembly is emulation bookkeeping — a real rank GEMMs its shard
  /// directly — so it is uncharged, and skipped outside execute mode).
  Tensor value(LayerContext& ctx) const;

  /// RAII full-gradient scope: tensor() is the full gradient buffer,
  /// gathered from the shards on entry and scattered back on exit, so
  /// accumulate-in-place kernels (GEMM beta=1, embedding_bw, bias_grad and
  /// the backward kernels that fold it via their `dbias`) see exactly the
  /// unsharded buffer semantics. Direct registry view (no copies) when
  /// unsharded.
  class GradScope {
   public:
    GradScope(const TpParam& p, LayerContext& ctx);
    GradScope(GradScope&& o) noexcept;
    GradScope(const GradScope&) = delete;
    GradScope& operator=(const GradScope&) = delete;
    GradScope& operator=(GradScope&&) = delete;
    ~GradScope();
    const Tensor& tensor() const { return full_; }

   private:
    const TpParam* param_ = nullptr;
    bool scatter_ = false;
    Tensor full_;
  };
  GradScope grad(LayerContext& ctx) const { return GradScope(*this, ctx); }

 private:
  friend class GradScope;
  /// Every shard's (registry, ref) pair, rank-ascending; size shard_count_
  /// when peers are simulated, 1 otherwise.
  std::vector<std::pair<const ParamRegistry*, ParamRef>> all_shards() const;

  ParamRegistry* reg_ = nullptr;    ///< rank-0 / device registry
  ParamRegistry* peers_ = nullptr;  ///< peer registry (nullptr: rank 0 only)
  ParamRef ref_;                    ///< rank-0 shard
  std::vector<ParamRef> peer_refs_;
  int shard_count_ = 1;
};

/// RAII shard-scale charging for the row-wise kernels between a TP layer's
/// GEMMs (transforms, softmax, dropout, bias chains): while alive, launches
/// are charged at 1/k bytes and flops — exact for these bandwidth-bound
/// kernels. No-op when TP is off.
class TpChargeScale {
 public:
  explicit TpChargeScale(LayerContext& ctx) : dev_(&ctx.device()) {
    const int k = ctx.tp_size();
    if (k > 1) {
      dev_->push_charge_scale(1.0 / static_cast<double>(k));
      active_ = true;
    }
  }
  ~TpChargeScale() {
    if (active_) dev_->pop_charge_scale();
  }
  TpChargeScale(const TpChargeScale&) = delete;
  TpChargeScale& operator=(const TpChargeScale&) = delete;

 private:
  simgpu::Device* dev_;
  bool active_ = false;
};

}  // namespace ls2::layers
