// All-reduce: the arithmetic (real, host-executed — used by the replica
// tests) and the analytical ring cost model (used by the simulated device
// for Fig. 3's synchronize stage and Fig. 22's scaling study).
//
// The cost model is the standard ring all-reduce: each of the N participants
// sends 2*(N-1) chunks of size bytes/N, so the wire time is
//     2 * (N-1)/N * bytes / bus_bandwidth  +  2*(N-1) * step_latency.
// Within one node the ring runs over NVLink; as soon as a second node is
// involved the inter-node fabric (InfiniBand) is the bottleneck link and the
// whole ring is paced by it — which is why Fig. 22's speedups shrink as
// nodes are added.
#pragma once

#include <cstdint>
#include <vector>

#include "simgpu/profile.h"
#include "tensor/tensor.h"

namespace ls2::dist {

/// Data-parallel cluster shape: `nodes` machines of `gpus_per_node` GPUs.
/// This device simulates rank 0; the other replicas are assumed identical
/// (same compute time), so only the all-reduce cost is added.
struct ClusterConfig {
  int gpus_per_node = 1;
  int nodes = 1;
  /// Overlap bucketed gradient all-reduce with the backward pass (the DDP
  /// strategy). false => one blocking ring after backward completes.
  bool overlap = true;
  /// Apply the optimizer per communication bucket as each all-reduce lands
  /// (Optimizer::step_range on the compute stream), instead of one
  /// monolithic update after the comm stream drains. Only takes effect with
  /// `overlap`; false reproduces the serial synchronize-then-update schedule.
  bool pipeline_update = true;
  /// Gradient bucket size cap for the overlapped path (bytes). 25 MB is the
  /// PyTorch-DDP default; smaller buckets start communicating earlier but
  /// pay the per-ring latency more often.
  int64_t bucket_bytes = 25 * 1024 * 1024;
  /// Dtype of the gradient payload ON THE WIRE. The numerically safe default
  /// is FP32 (gradients are up-cast before transmission, matching
  /// allreduce_average's FP32-accumulation contract); kF16 sends half the
  /// bytes — the Fig. 6(b) on-the-fly-conversion trick applied to the ring —
  /// with reduction accumulators still FP32, at the cost of one FP16
  /// rounding per hop. Pair FP16 wire with dynamic loss scaling
  /// (OptimConfig::dynamic_loss_scale) so overflows are caught per bucket.
  DType wire_dtype = DType::kF32;
  /// Tensor-parallel degree (DESIGN.md §7): each replica's layers are
  /// sharded Megatron-style across this many GPUs of one node, and the
  /// remaining factor total_gpus()/tensor_parallel is the data-parallel
  /// replica count. Must divide gpus_per_node — a TP group's collectives
  /// stay on the intra-node NVLink ring and never cross the fabric.
  int tensor_parallel = 1;
  /// Pipeline-parallel degree (DESIGN.md §9): the model's layers are
  /// partitioned across this many consecutive stages driven by a 1F1B
  /// microbatch schedule, the third orthogonal axis of the 3D layout
  /// rank = ((dp * pp) + pp_rank) * tp + tp_rank. PP neighbors are
  /// adjacent ranks (stride tensor_parallel) so the large activation
  /// sends ride the cheapest links available.
  int pipeline_parallel = 1;
  /// Microbatches per step under pipeline parallelism (the global batch
  /// is sliced along dim 0; B % microbatches must be 0). More microbatches
  /// shrink the 1F1B bubble fraction (pp-1)/(m+pp-1). Must be 1 when
  /// pipeline_parallel == 1.
  int microbatches = 1;
  /// Data-parallel replicas LOST to failures and elastically shrunk away
  /// (DESIGN.md §10): the DP ring re-forms over the survivors, the
  /// gradient-averaging denominator becomes the surviving dp_size(), and
  /// training continues degraded instead of aborting. Provisioned shape
  /// knobs above stay untouched — dp_lost is runtime state, set by the
  /// recovery layer, never by hand-written configs.
  int dp_lost = 0;

  int total_gpus() const { return gpus_per_node * nodes; }
  /// Data-parallel replica count of the hybrid 3D layout (survivors only
  /// after an elastic shrink).
  int dp_size() const {
    return total_gpus() / (tensor_parallel * pipeline_parallel) - dp_lost;
  }

  /// Reject inconsistent shapes with a clear message at configuration time
  /// (instead of deep inside a group split): dp x tp x pp must exactly
  /// cover world_size, TP must stay within one node, the microbatch count
  /// must be sane, and PP runs with overlap and pipeline_update on (the
  /// only schedule its engine models). Called by ProcessGroup's
  /// constructor and core::train_step; callers building configs by hand
  /// can call it early.
  void validate() const;
};

/// Bytes `storage_bytes` of `storage_dtype` gradients occupy on the wire
/// once converted to the cluster's wire dtype: the payload the ring model
/// should be charged for. Halves the ring bytes of an FP16-wire cluster
/// relative to the FP32-wire default.
int64_t wire_payload_bytes(int64_t storage_bytes, DType storage_dtype,
                           DType wire_dtype);

/// The ring's bottleneck bus bandwidth: NVLink within one node, the
/// inter-node fabric as soon as the ring crosses machines. Shared by the
/// ring time model and the bucket-size amortization bound so the two can
/// never disagree about which link paces the ring.
double bottleneck_bus_gb_s(const ClusterConfig& cluster,
                           const simgpu::DeviceProfile& profile);

/// Modeled microseconds for one ring all-reduce of `bytes` gradient bytes
/// over the cluster. Zero when the cluster is a single GPU.
double ring_allreduce_us(int64_t bytes, const ClusterConfig& cluster,
                         const simgpu::DeviceProfile& profile);

/// Average the replica tensors element-wise IN PLACE (every tensor ends up
/// holding the mean). Accumulation is always FP32, so FP16 gradients do not
/// lose low-magnitude contributions (§IV-C's mixed-precision discipline).
/// `wire_dtype` models the payload dtype: kF16 rounds every replica's
/// contribution — and the reduced result — through FP16 on its way across
/// the ring (accumulators stay FP32), exactly what the compressed-comm path
/// does; the default FP32 wire is lossless.
void allreduce_average(const std::vector<Tensor>& replicas,
                       DType wire_dtype = DType::kF32);

/// Element-wise in-place sum across replicas (FP32 accumulation).
void allreduce_sum(const std::vector<Tensor>& replicas,
                   DType wire_dtype = DType::kF32);

}  // namespace ls2::dist
