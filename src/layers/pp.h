// Pipeline-parallel stage partition (DESIGN.md §9).
//
// A model partitions its components across `stages` consecutive pipeline
// stages: the embedding on the first stage, a contiguous run of transformer
// blocks per stage (placed by BlockStack::place, layers/block_stack.h), the
// final LayerNorm and the criterion or head on the last. pp_configure on
// each model records which declaration ranges live on which stage in a
// PpPlan; core::train_step's pipeline lane (core/train_step.h) uses the
// plan to
//
//   * bucket each stage's gradients separately (one dist::BucketPlan per
//     stage, driving that stage's DP ring lane and optimizer ranges),
//   * account the tied-embedding gradient hop (last stage -> stage 0).
//
// The plan is pure bookkeeping — the simulation still executes the FULL
// model on the session device. Stage boundaries are marked at runtime via
// LayerContext::pp_enter (layer_context.h): the model marks its first stage
// of each direction and BlockStack every boundary between blocks, so the
// engine can time each stage's chunk and swap the activation allocator per
// stage.
#pragma once

#include <vector>

#include "common/check.h"
#include "layers/params.h"

namespace ls2::layers {

/// One model's layer-to-stage assignment.
struct PpPlan {
  /// An empty plan over `stages` stages; throws ls2::Error unless >= 1.
  explicit PpPlan(int stages = 1) : stages(stages) {
    LS2_CHECK(stages >= 1) << "pp " << stages;
    stage_params.resize(static_cast<size_t>(stages));
  }

  int stages = 1;
  /// Parameter declaration ranges owned by each stage (size == stages).
  /// Ranges within a stage are ascending and non-overlapping across stages.
  std::vector<std::vector<ParamRange>> stage_params;
  /// The tied embedding table (declared on stage 0, ALSO written by the
  /// last stage's criterion backward), or invalid when untied. A tied
  /// table's gradient takes one extra send last stage -> stage 0 before
  /// its DP bucket can launch.
  ParamRef tied_param;
};

}  // namespace ls2::layers
