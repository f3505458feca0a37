#include "dist/allreduce.h"

#include "common/check.h"

namespace ls2::dist {

void ClusterConfig::validate() const {
  LS2_CHECK(gpus_per_node >= 1 && nodes >= 1)
      << "cluster shape " << gpus_per_node << "x" << nodes;
  LS2_CHECK(tensor_parallel >= 1) << "tensor_parallel must be positive";
  LS2_CHECK(pipeline_parallel >= 1) << "pipeline_parallel must be positive";
  LS2_CHECK(microbatches >= 1) << "microbatches must be positive";
  LS2_CHECK(gpus_per_node % tensor_parallel == 0)
      << "tensor_parallel " << tensor_parallel << " must divide gpus_per_node "
      << gpus_per_node << " — a TP group never crosses the node boundary";
  const int model = tensor_parallel * pipeline_parallel;
  LS2_CHECK(total_gpus() % model == 0 && total_gpus() >= model)
      << "dp x tp x pp must equal world_size: tp " << tensor_parallel << " x pp "
      << pipeline_parallel << " does not tile the " << total_gpus() << "-GPU cluster ("
      << gpus_per_node << " GPUs x " << nodes << " nodes) — "
      << total_gpus() % model << " ranks would be left over";
  LS2_CHECK(pipeline_parallel == 1 || microbatches >= pipeline_parallel)
      << "pipeline_parallel " << pipeline_parallel << " needs at least that many "
      << "microbatches to fill the pipe (got " << microbatches
      << "); the 1F1B bubble fraction (pp-1)/(m+pp-1) only shrinks with m";
  LS2_CHECK(pipeline_parallel > 1 || microbatches == 1)
      << "microbatches " << microbatches << " without pipeline parallelism would "
      << "silently become gradient accumulation — set microbatches = 1";
  LS2_CHECK(pipeline_parallel == 1 || (overlap && pipeline_update))
      << "pipeline_parallel " << pipeline_parallel << " always overlaps its per-stage "
      << "DP rings and pipelines the update — overlap = false and "
      << "pipeline_update = false are not modeled under PP";
  LS2_CHECK(dp_lost >= 0) << "dp_lost " << dp_lost << " cannot be negative";
  LS2_CHECK(dp_size() >= 1)
      << "elastic shrink lost " << dp_lost << " of "
      << total_gpus() / (tensor_parallel * pipeline_parallel)
      << " data-parallel replicas — no survivors left to train on";
}

double bottleneck_bus_gb_s(const ClusterConfig& cluster,
                           const simgpu::DeviceProfile& profile) {
  return cluster.nodes > 1 ? profile.ib_bus_gb_s : profile.nvlink_bus_gb_s;
}

double ring_allreduce_us(int64_t bytes, const ClusterConfig& cluster,
                         const simgpu::DeviceProfile& profile) {
  LS2_CHECK(bytes >= 0) << "negative all-reduce size";
  LS2_CHECK(cluster.gpus_per_node >= 1 && cluster.nodes >= 1)
      << cluster.gpus_per_node << "x" << cluster.nodes;
  LS2_CHECK(cluster.tensor_parallel >= 1 &&
            cluster.gpus_per_node % cluster.tensor_parallel == 0)
      << "tensor_parallel " << cluster.tensor_parallel << " must divide gpus_per_node "
      << cluster.gpus_per_node;
  // The gradient ring runs over the DATA-parallel group: with hybrid
  // data x model parallelism each rank only syncs its own shard with the
  // dp_size() replicas holding the same shard.
  const int n = cluster.dp_size();
  if (n <= 1 || bytes == 0) return 0.0;
  const double bus_gb_s = bottleneck_bus_gb_s(cluster, profile);
  const double steps = 2.0 * (n - 1);
  const double chunk_bytes = static_cast<double>(bytes) / n;
  // GB/s == bytes/ns => us = bytes / (GB/s * 1e3).
  const double wire_us = steps * chunk_bytes / (bus_gb_s * 1e3);
  return wire_us + steps * profile.allreduce_latency_us;
}

int64_t wire_payload_bytes(int64_t storage_bytes, DType storage_dtype,
                           DType wire_dtype) {
  LS2_CHECK(storage_bytes >= 0) << "negative payload";
  const int64_t selem = static_cast<int64_t>(dtype_size(storage_dtype));
  const int64_t welem = static_cast<int64_t>(dtype_size(wire_dtype));
  LS2_CHECK(storage_bytes % selem == 0)
      << storage_bytes << " bytes not a multiple of " << dtype_name(storage_dtype);
  return storage_bytes / selem * welem;
}

namespace {

/// Round `v` the way the wire would: FP16 payloads lose precision per hop,
/// FP32 payloads are exact.
inline float wire_round(float v, DType wire_dtype) {
  return wire_dtype == DType::kF16 ? static_cast<float>(Half(v)) : v;
}

}  // namespace

void allreduce_average(const std::vector<Tensor>& replicas, DType wire_dtype) {
  LS2_CHECK(wire_dtype == DType::kF32 || wire_dtype == DType::kF16)
      << "unsupported wire dtype " << dtype_name(wire_dtype);
  LS2_CHECK(!replicas.empty()) << "allreduce over zero replicas";
  const Tensor& first = replicas.front();
  for (const Tensor& t : replicas) {
    LS2_CHECK(t.defined()) << "allreduce over undefined tensor";
    LS2_CHECK_EQ(t.numel(), first.numel());
    LS2_CHECK(t.dtype() == first.dtype())
        << dtype_name(t.dtype()) << " vs " << dtype_name(first.dtype());
  }
  // Model-only sweeps back tensors with never-committed virtual pages; the
  // arithmetic is skipped there just like every other kernel body.
  for (const Tensor& t : replicas) {
    if (!t.backs_real_memory()) return;
  }
  // to_vector() up-converts FP16 to FP32, so the sum below accumulates in
  // FP32 regardless of the storage dtype; copy_from() converts back. Each
  // replica's contribution is first rounded to the wire dtype (what the
  // hop's payload carries); the accumulator itself stays FP32.
  std::vector<float> acc = first.to_vector();
  for (float& x : acc) x = wire_round(x, wire_dtype);
  for (size_t r = 1; r < replicas.size(); ++r) {
    const std::vector<float> v = replicas[r].to_vector();
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += wire_round(v[i], wire_dtype);
  }
  const float scale = 1.0f / static_cast<float>(replicas.size());
  for (float& x : acc) x *= scale;
  // The reduced chunk travels the all-gather phase in the wire dtype too.
  for (float& x : acc) x = wire_round(x, wire_dtype);
  for (const Tensor& t : replicas) t.copy_from(acc);
}

}  // namespace ls2::dist
