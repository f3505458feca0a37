// Learning-rate schedules. Transformer training uses inverse-sqrt with
// linear warmup (Vaswani et al.); provided so examples train with the same
// recipe the paper's experiments use.
#pragma once

#include <cstdint>

namespace ls2::optim {

class InverseSqrtSchedule {
 public:
  InverseSqrtSchedule(float peak_lr, int64_t warmup_steps)
      : peak_lr_(peak_lr), warmup_(warmup_steps) {}

  /// LR for a 1-based step.
  float lr(int64_t step) const;

 private:
  float peak_lr_;
  int64_t warmup_;
};

}  // namespace ls2::optim
