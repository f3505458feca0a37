// Device-launched GEMM: runs the host GEMM (execute mode) while charging the
// simulated device for one cuBLAS launch with shape-dependent utilisation.
#pragma once

#include <functional>
#include <string>

#include "simgpu/device.h"
#include "tensor/tensor.h"

namespace ls2::gemm {

/// Override for the launch's COST model under tensor parallelism: the body
/// still computes the full (m, n, k, batch) problem — the bitwise stand-in
/// for the sharded arithmetic, DESIGN.md §7 — but the device is charged for
/// one rank's shard-shaped GEMM, so the occupancy model sees the real
/// (smaller) shard shapes a TP rank launches.
struct GemmCharge {
  int64_t m = 0, n = 0, k = 0, batch = 1;
};

/// One GEMM launch as a value: the descriptor the device is charged and the
/// host body that computes C. device_gemm launches it as it is; a fused
/// kernel that runs element-wise work over C in the same launch (an
/// epilogue, kern::fused) runs the body first and adds its own charge.
struct GemmLaunch {
  simgpu::KernelDesc desc;
  Tensor c;  ///< the output the body writes
  /// The share of C's elements the charged GEMM writes: 1, or the shard's
  /// share under a GemmCharge (1/tp for a column-parallel output).
  double c_share = 1.0;
  std::function<void()> body;
};

/// C = alpha * op(A) @ op(B) + beta * C as a GemmLaunch. A/B/C must share
/// one dtype (kF32 or kF16); FP16 GEMM is charged at tensor-core
/// throughput. `tag` names the launch in per-kernel stats. `charge`
/// (optional) substitutes shard shapes into the cost model.
GemmLaunch gemm_launch(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                       float alpha, const Tensor& a, const Tensor& b, float beta,
                       const Tensor& c, const std::string& tag = "cublas.gemm",
                       const GemmCharge* charge = nullptr);

/// Launches gemm_launch(...) on the simulated device.
void device_gemm(simgpu::Device& device, bool trans_a, bool trans_b, int64_t m, int64_t n,
                 int64_t k, float alpha, const Tensor& a, const Tensor& b, float beta,
                 const Tensor& c, const std::string& tag = "cublas.gemm",
                 const GemmCharge* charge = nullptr);

/// Strided batched GEMM in a single launch (cublasGemmStridedBatched).
void device_gemm_batched(simgpu::Device& device, bool trans_a, bool trans_b, int64_t m,
                         int64_t n, int64_t k, float alpha, const Tensor& a, int64_t stride_a,
                         const Tensor& b, int64_t stride_b, float beta, const Tensor& c,
                         int64_t stride_c, int64_t batch,
                         const std::string& tag = "cublas.gemm_batched",
                         const GemmCharge* charge = nullptr);

}  // namespace ls2::gemm
