// Data-parallel replica management (§II-B stage "synchronize").
//
// This repo simulates rank 0 of a cluster for *timing*; for *numerics* the
// replica tests construct several real model instances and use the helpers
// here: sync_gradients averages gradients across registries exactly like an
// all-reduce would, and find_divergence proves the invariant that makes data
// parallelism correct — identically initialised replicas that apply the same
// averaged gradients stay bitwise identical forever.
#pragma once

#include <string>
#include <vector>

#include "dist/allreduce.h"
#include "dist/bucket.h"
#include "layers/params.h"

namespace ls2::dist {

/// Average every parameter's gradient across the replica registries in
/// place (FP32 accumulation, see allreduce_average). The registries must
/// have identical declarations. `wire_dtype` models the on-the-wire payload
/// (kF16 rounds each hop's contribution; the FP32 default is lossless).
void sync_gradients(const std::vector<layers::ParamRegistry*>& replicas,
                    DType wire_dtype = DType::kF32);

/// Bucketed variant: averages one bucket at a time following `plan` — the
/// payload granularity the overlapped scheduler communicates at. Numerically
/// identical to sync_gradients (workspace registries only).
void sync_gradients_bucketed(const std::vector<layers::ParamRegistry*>& replicas,
                             const BucketPlan& plan,
                             DType wire_dtype = DType::kF32);

/// "" when all replicas hold bitwise-identical parameter values; otherwise a
/// human-readable description of the first divergent parameter.
std::string find_divergence(const std::vector<const layers::ParamRegistry*>& replicas);

}  // namespace ls2::dist
