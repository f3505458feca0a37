// Checkpoint save/load.
//
// Parameters serialise as FP32 regardless of training dtype, so a model
// trained under any System (including the FP16 LightSeq2 workspace) can be
// reloaded under any other — the paper's "the original model and LightSeq2
// model can be easily converted to each other" (§V-B).
#pragma once

#include <string>

#include "layers/params.h"

namespace ls2::models {

/// Write every parameter (name, shape, fp32 data) to `path`.
void save_checkpoint(const layers::ParamRegistry& params, const std::string& path);

/// Load parameters by name; every registry parameter must be present with a
/// matching shape. Extra entries in the file are an error unless
/// `allow_extra` is set.
void load_checkpoint(layers::ParamRegistry& params, const std::string& path,
                     bool allow_extra = false);

}  // namespace ls2::models
