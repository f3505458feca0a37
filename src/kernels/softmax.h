// Softmax kernels (§IV-B).
//
// The attention Softmax sees wildly different shapes (reduction dim from a
// few to thousands; row count from thousands to millions), so LightSeq2
// keeps several kernel templates — differing in how many threads cooperate
// on one row — and *auto-tunes*: before training it evaluates the candidate
// templates for each shape bucket and caches the winner.
//
// Numerically all implementations use the stable three-step scheme
// (subtract row max, exponentiate, normalise); the fused kernels do it in
// one launch with the row resident, while the baseline decomposition
// launches max / exp-sum / normalise (plus a masked_fill for attention
// masks) and materialises intermediates.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/dropout.h"  // Impl
#include "kernels/kernel_context.h"

namespace ls2::kern {

/// One Softmax kernel template: how many threads cooperate per row.
struct SoftmaxConfig {
  int threads_per_row = 32;
  const char* tag = "warp";
};

/// Candidate templates (sub-warp to multi-warp teams).
const std::vector<SoftmaxConfig>& softmax_candidates();

/// Pick the best template for (rows, cols) on a device with
/// `device_threads` of thread residency (DeviceProfile::resident_threads):
/// evaluates the achieved-bandwidth model for every candidate and caches the
/// winner per (device, log2-bucketed shape). This is the pre-training search
/// of §IV-B. The cache is keyed by the device identity — benches that sweep
/// profiles get per-profile winners, never another profile's stale ones.
/// The two-argument form assumes a V100-class part.
SoftmaxConfig tune_softmax(int64_t rows, int64_t cols);
SoftmaxConfig tune_softmax(int64_t rows, int64_t cols, double device_threads);

/// Drop every cached tuning decision (benches/tests that re-tune from a
/// clean slate; cheap — the next tune_softmax re-runs the search).
void reset_softmax_tuner();

/// Modeled achieved bandwidth of a template on a shape (exposed for the
/// tuner ablation bench). The three-argument form assumes a V100-class part.
double softmax_config_efficiency(const SoftmaxConfig& cfg, int64_t rows, int64_t cols);
double softmax_config_efficiency(const SoftmaxConfig& cfg, int64_t rows, int64_t cols,
                                 double device_threads);

// --- row softmax backward over the last dimension ---

/// dx = y * (dy - sum_j dy_j*y_j) row-wise.
void softmax_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& y,
                const Tensor& dx);

// --- attention softmax on scores [B, N, Lq, Lk] ---

/// Masked softmax over Lk. `causal` masks keys beyond the query position;
/// `key_lens` (i32 [B], optional) masks padding keys. Baseline impls charge
/// an extra masked_fill launch, fused impls apply masks inline.
void attn_softmax_fw(KernelContext& kc, Impl impl, const Tensor& x, const Tensor& y,
                     bool causal, const Tensor* key_lens);

/// Backward of the masked softmax (masked positions have y=0 => dx=0).
void attn_softmax_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& y,
                     const Tensor& dx);

/// Maximum of x[0, valid) in float (-inf when valid <= 0).
template <typename T>
float attn_row_max(const T* x, int64_t valid) {
  float mx = -std::numeric_limits<float>::infinity();
  for (int64_t j = 0; j < valid; ++j) mx = std::max(mx, static_cast<float>(x[j]));
  return mx;
}

/// The last step of attn_softmax_row: y[j] = exp(x[j] - mx) * inv_z over
/// [0, valid), zeros over [valid, cols), valid >= 0. Given the row's max and the
/// normaliser attn_softmax_row returned, it rebuilds that row's output
/// bitwise — how the fused attention backward recomputes the forward's
/// probabilities from the saved normaliser.
template <typename T>
void attn_softmax_row_normalise(const T* x, T* y, int64_t valid, int64_t cols, float mx,
                                float inv_z) {
  for (int64_t j = 0; j < valid; ++j)
    y[j] = T(std::exp(static_cast<float>(x[j]) - mx) * inv_z);
  for (int64_t j = valid; j < cols; ++j) y[j] = T(0.0f);
}

/// One row of the masked attention softmax: y[0, valid) = softmax(x[0,
/// valid)), y[valid, cols) = 0 (all zeros when valid <= 0). Returns the
/// normaliser 1 / sum_j exp(x[j] - max) (0 for an empty row). The row code
/// of attn_softmax_fw, shared with the fused attention kernels that must
/// stay bitwise equal to it (kernels/attention.h).
template <typename T>
float attn_softmax_row(const T* x, T* y, int64_t valid, int64_t cols) {
  if (valid <= 0) {
    for (int64_t j = 0; j < cols; ++j) y[j] = T(0.0f);
    return 0.0f;
  }
  const float mx = attn_row_max(x, valid);
  double z = 0;
  for (int64_t j = 0; j < valid; ++j) z += std::exp(static_cast<float>(x[j]) - mx);
  const float inv_z = static_cast<float>(1.0 / z);
  attn_softmax_row_normalise(x, y, valid, cols, mx, inv_z);
  return inv_z;
}

}  // namespace ls2::kern
