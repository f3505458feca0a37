// A model's stack of transformer blocks and the LayerNorm that ends it.
//
// All four models (BERT, GPT-2, the encoder-decoder Transformer, ViT) are
// embedding -> BlockStack -> LayerNorm -> head. The stack owns what every
// model would otherwise restate: the blocks' parameter declaration ranges,
// their pipeline stages (DESIGN.md §9) and the walk over them. Forward and
// backward take the per-block pass as a callable, so one walk serves
// training, cached prefill and decode; at each stage boundary the walk calls
// LayerContext::pp_enter, and backward reports every block grad-ready
// (DESIGN.md §4) as soon as its gradients are final.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "layers/layer_context.h"
#include "layers/params.h"
#include "layers/pp.h"

namespace ls2::layers {

/// Bytes a stage boundary carries besides the hidden state (e.g. the cross
/// K/V the decoder's later layers still need), given the boundary's first
/// block on the later stage. Null: nothing besides the hidden state.
using StackCarry = std::function<int64_t(int64_t block)>;

/// The non-template half of BlockStack: each block's declaration range and
/// pipeline stage.
class BlockStackBase {
 public:
  int64_t size() const { return static_cast<int64_t>(ranges_.size()); }
  /// Pipeline stage of block `i` (0 until placed).
  int stage(int64_t i) const { return stages_[static_cast<size_t>(i)]; }

  /// Put the blocks on stages [first, first + stages) of `plan` in
  /// contiguous runs whose sizes differ by at most one, earlier stages
  /// taking the remainder (balanced by block count), and append each
  /// block's range to its stage's parameters. Throws ls2::Error unless
  /// 1 <= stages <= size() and the stages exist in `plan`.
  void place(PpPlan& plan, int first, int stages);

 protected:
  explicit BlockStackBase(ParamRegistry& params) : params_(params) {}
  /// Mark the boundary in front of block `b` (b >= 1) if it starts a new
  /// stage: forward enters b's stage, backward the stage of block b - 1.
  void cross(LayerContext& ctx, int64_t b, bool forward, const Tensor& h,
             const StackCarry& carried) const;

  ParamRegistry& params_;
  std::vector<ParamRange> ranges_;
  std::vector<int> stages_;
};

/// `count` blocks named `<prefix>.<i>`, each built as
/// Block(params, name, args...) and placed on stage 0 until place().
template <typename Block>
class BlockStack : public BlockStackBase {
 public:
  template <typename... Args>
  BlockStack(ParamRegistry& params, const std::string& prefix, int64_t count,
             const Args&... args)
      : BlockStackBase(params) {
    for (int64_t i = 0; i < count; ++i) {
      const int mark = params.size();
      blocks_.push_back(
          std::make_unique<Block>(params, prefix + "." + std::to_string(i), args...));
      ranges_.push_back(params.range_since(mark));
    }
    stages_.assign(ranges_.size(), 0);
  }

  /// h = step(block, i, h) for blocks 0..n-1. Entering a later stage calls
  /// ctx.pp_enter(stage, /*forward=*/true, h.bytes() + carried(i)).
  template <typename Step>
  Tensor forward(LayerContext& ctx, Tensor h, Step&& step, const StackCarry& carried = nullptr) {
    for (int64_t i = 0; i < size(); ++i) {
      if (i > 0) cross(ctx, i, /*forward=*/true, h, carried);
      h = step(*blocks_[static_cast<size_t>(i)], i, h);
    }
    return h;
  }

  /// dh = step(block, i, dh) for blocks n-1..0, reporting each block
  /// grad-ready after its step. Leaving a stage calls ctx.pp_enter(stage of
  /// block i, /*forward=*/false, dh.bytes() + carried(i + 1)). `dh` is taken
  /// by value: the incoming gradient dies once the last block has consumed it.
  template <typename Step>
  Tensor backward(LayerContext& ctx, Tensor dh, Step&& step, const StackCarry& carried = nullptr) {
    for (int64_t i = size() - 1; i >= 0; --i) {
      if (i + 1 < size()) cross(ctx, i + 1, /*forward=*/false, dh, carried);
      dh = step(*blocks_[static_cast<size_t>(i)], i, dh);
      params_.notify_grad_ready(ranges_[static_cast<size_t>(i)]);
    }
    return dh;
  }
  /// Backward through blocks whose pass is block.backward(ctx, dy).
  Tensor backward(LayerContext& ctx, Tensor dh) {
    return backward(ctx, std::move(dh),
                    [&ctx](Block& b, int64_t, const Tensor& dy) { return b.backward(ctx, dy); });
  }

  void release() {
    for (auto& b : blocks_) b->release();
  }

 private:
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// The LayerNorm that ends a pre-LN stack. Declares `<prefix>.gamma` (ones)
/// and `<prefix>.beta` (zeros); forward saves its input, output and row
/// statistics for backward only while training.
class LayerNorm {
 public:
  LayerNorm(ParamRegistry& params, const std::string& prefix, int64_t hidden);

  /// y = LayerNorm(x), row-wise over x [..., hidden].
  Tensor forward(LayerContext& ctx, const Tensor& x);
  /// dx from dy; gamma and beta are then final, so range() is reported
  /// grad-ready.
  Tensor backward(LayerContext& ctx, const Tensor& dy);
  void release() { saved_.reset(); }

  /// Declaration range of gamma and beta, for stage placement.
  ParamRange range() const { return range_; }

 private:
  ParamRegistry& params_;
  ParamRef gamma_, beta_;
  ParamRange range_;

  struct Saved {
    Tensor x, y, mean, rstd;
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::layers
