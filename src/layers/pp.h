// Pipeline-parallel stage partition (DESIGN.md §9).
//
// A model partitions its components across `stages` consecutive pipeline
// stages: the embedding on the first stage, a contiguous run of transformer
// blocks per stage, the criterion (and any head) on the last. pp_configure
// on each model records which declaration ranges live on which stage in a
// PpPlan; core::train_step's pipeline lane (core/train_step.h) uses the
// plan to
//
//   * bucket each stage's gradients separately (one dist::BucketPlan per
//     stage, driving that stage's DP ring lane and optimizer ranges),
//   * account the tied-embedding gradient hop (last stage -> stage 0).
//
// The plan is pure bookkeeping — the simulation still executes the FULL
// model on the session device; stage boundaries are marked at runtime via
// LayerContext::pp (layer_context.h) so the engine can time each stage's
// chunk and swap the activation allocator per stage.
#pragma once

#include <cstdint>
#include <vector>

#include "layers/params.h"

namespace ls2::layers {

/// One model's layer-to-stage assignment.
struct PpPlan {
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

/// Split `count` transformer blocks over `stages` stages as evenly as
/// possible, earlier stages taking the remainder (block b lives on stage
/// block_stage(b)). Shared by all four models so fig_3d's partitions match
/// the tests'.
inline int block_stage(int64_t block, int64_t count, int stages) {
  // Stage s owns blocks [ceil(s*count/stages), ceil((s+1)*count/stages)) —
  // contiguous runs whose sizes differ by at most one.
  return static_cast<int>(block * static_cast<int64_t>(stages) / count);
}

}  // namespace ls2::layers
