// Shared state handed to every kernel: the simulated device, a scratch
// allocator for intermediate tensors the *baseline* implementations
// materialise (fused kernels, by design, do not), and the counter-based RNG
// for dropout.
#pragma once

#include <cstdint>

#include "simgpu/device.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace ls2::kern {

struct KernelContext {
  KernelContext(simgpu::Device& device, BufferAllocator* scratch_alloc, uint64_t seed)
      : dev(device), scratch(scratch_alloc ? scratch_alloc : heap_allocator()), rng(seed) {}

  simgpu::Device& dev;
  BufferAllocator* scratch;
  Rng rng;

  /// Dropout stream id for the next dropout site: a per-step base plus a
  /// per-site counter, so every mask is a pure function of
  /// (seed, step, site) — the Philox-style (seed, offset) discipline. Each
  /// site draws a distinct mask, fused and unfused implementations draw
  /// identical masks (same site order), and a step replayed from a captured
  /// graph draws bitwise the masks its eager twin would: the step base
  /// advances OUTSIDE the graph (begin_step_rng is the per-step graph
  /// parameter), never from inside a captured kernel.
  uint64_t next_dropout_stream() { return rng_step_base + dropout_site++; }

  /// Advance the RNG to step `step_index` (0-based) and reset the site
  /// counter. core::Session::begin_step calls this once per training step;
  /// code that never calls it keeps the legacy monotone stream sequence.
  void begin_step_rng(uint64_t step_index) {
    rng_step_base = (step_index + 1) << 32;
    dropout_site = 1;
  }

  uint64_t rng_step_base = 0;
  uint64_t dropout_site = 1;

  /// Microbatch index under pipeline parallelism (core/train_step.h), 0
  /// otherwise. RNG-drawing kernels offset their element index by
  /// `microbatch * numel` so microbatch j draws exactly the mask slice the
  /// full-batch launch would have drawn for the same global elements
  /// (batches are sliced along dim 0, so the j-th microbatch's elements ARE
  /// the contiguous index range [j*numel, (j+1)*numel) of the full tensor).
  /// The engine resets dropout_site to 1 per microbatch for the same
  /// reason: every microbatch walks the same site sequence the full batch
  /// walks once.
  uint64_t microbatch = 0;
};

/// Dispatch a template over the two floating dtypes.
#define LS2_DISPATCH_FLOAT(DTYPE, T, ...)                                \
  switch (DTYPE) {                                                       \
    case ::ls2::DType::kF32: {                                           \
      using T = float;                                                   \
      __VA_ARGS__;                                                       \
      break;                                                             \
    }                                                                    \
    case ::ls2::DType::kF16: {                                           \
      using T = ::ls2::Half;                                             \
      __VA_ARGS__;                                                       \
      break;                                                             \
    }                                                                    \
    default:                                                             \
      LS2_CHECK(false) << "kernel requires a floating dtype";            \
  }

/// Achieved-bandwidth model for row-reduction kernels (LayerNorm, Softmax,
/// criterion). `threads_per_row` is the parallelisation strategy; efficiency
/// degrades when threads outnumber row elements (idle lanes) or when too few
/// rows exist to occupy the device. `device_threads` is the device's
/// thread-residency capacity (DeviceProfile::resident_threads); the
/// four-argument form assumes a V100-class part.
double reduction_efficiency(double base, int64_t rows, int64_t cols, int threads_per_row);
double reduction_efficiency(double base, int64_t rows, int64_t cols, int threads_per_row,
                            double device_threads);

}  // namespace ls2::kern
