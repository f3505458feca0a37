// The [CLS] classification head BERT and ViT end with (Table II rows 2-3):
// pool position 0 of the final LayerNorm's output, project it to the
// classes, cross entropy against the labels. The head is tiny, so it stays
// replicated under tensor parallelism.
#pragma once

#include <optional>
#include <string>

#include "layers/layer_context.h"
#include "layers/params.h"

namespace ls2::models {

struct ClsResult {
  float loss = 0;      ///< mean cross entropy over the batch
  int64_t correct = 0; ///< argmax accuracy numerator
  int64_t total = 0;
};

class ClsHead {
 public:
  /// Declares `<model>.<name>.weight` [classes, hidden] and
  /// `<model>.<name>.bias`; the pooling kernels launch as
  /// `<model>.gather_cls` and `<model>.scatter_cls`.
  ClsHead(layers::ParamRegistry& params, const std::string& model, const std::string& name,
          int64_t hidden, int64_t classes);

  /// x: [B, L, H], labels: [B] i32. Under microbatched execution (pipeline
  /// parallelism) the context's carries continue the double loss sum and
  /// the correct count across slices, and the mean divides by the GLOBAL
  /// batch size — bitwise the full-batch run.
  ClsResult forward(layers::LayerContext& ctx, const Tensor& x, const Tensor& labels);
  /// Gradient w.r.t. x (zero off position 0); the head's parameters are
  /// then final, so range() is reported grad-ready.
  Tensor backward(layers::LayerContext& ctx);
  void release() { saved_.reset(); }

  /// Declaration range of the classifier, for stage placement.
  layers::ParamRange range() const { return range_; }

 private:
  layers::ParamRegistry& params_;
  std::string model_, tag_;
  int64_t hidden_, classes_;
  layers::ParamRef w_, b_;
  layers::ParamRange range_;

  struct Saved {
    Tensor cls, logits, stats, labels;  // pooled [CLS] and classifier head
    Shape x_shape;
    bool logits_hold_grad = false;  ///< the forward overwrote them with dlogits
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::models
