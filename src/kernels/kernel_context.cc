#include "kernels/kernel_context.h"

#include <algorithm>
#include <cmath>

namespace ls2::kern {

double reduction_efficiency(double base, int64_t rows, int64_t cols, int threads_per_row,
                            double device_threads) {
  // Idle lanes when a row is narrower than its thread team.
  const double lane_util =
      std::min(1.0, static_cast<double>(cols) / static_cast<double>(threads_per_row));
  // Device occupancy: bigger parts need more resident threads to fill.
  const double resident = static_cast<double>(rows) * threads_per_row;
  const double occupancy = std::pow(std::min(1.0, resident / device_threads), 0.25);
  return std::clamp(base * lane_util * occupancy, 0.02, 0.95);
}

double reduction_efficiency(double base, int64_t rows, int64_t cols, int threads_per_row) {
  // V100-class residency (80 SMs x 2048 threads), the historical default.
  return reduction_efficiency(base, rows, cols, threads_per_row, 163840.0);
}

double column_fold_efficiency(const KernelContext& kc, double base, int64_t cols,
                              int64_t rows) {
  return reduction_efficiency(base, cols, rows, 128, kc.dev.profile().resident_threads);
}

}  // namespace ls2::kern
