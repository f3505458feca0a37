// Execution policy and per-step context for layers.
//
// Every layer runs under a System policy that selects which kernel family
// implements each op — this is how the same layer code acts as Fairseq,
// Fairseq+Apex, DeepSpeed or LightSeq2 (Table I / Table II baselines):
//
//   kFairseq     — fine-grained kernels everywhere, dynamic allocations.
//                  (Also stands in for Hugging Face, which likewise runs
//                  native PyTorch ops.)
//   kFairseqApex — Apex adds fused LayerNorm/Softmax kernels and the fused
//                  FP32-master trainer, but no fused embedding/criterion/
//                  element-wise chains.
//   kDeepSpeed   — fully fused *encoder* kernels (its own LN/Softmax
//                  variants), baseline embedding/criterion, sequence
//                  lengths must be padded to multiples of 16, no decoder.
//   kLightSeq2   — all LightSeq2 fused kernels, arbitrary lengths, arena
//                  memory, fused FP16 trainer.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dist/process_group.h"
#include "kernels/dropout.h"
#include "kernels/kernel_context.h"

namespace ls2::layers {

enum class System { kFairseq, kFairseqApex, kDeepSpeed, kLightSeq2 };

const char* system_name(System s);

/// Which kernel implementation each op family uses under a system.
struct Policy {
  System system = System::kLightSeq2;
  kern::Impl elementwise = kern::Impl::kLS2;  ///< kTorch => unfused chains
  kern::Impl layernorm = kern::Impl::kLS2;
  kern::Impl softmax = kern::Impl::kLS2;
  kern::Impl embedding = kern::Impl::kLS2;
  kern::Impl criterion = kern::Impl::kLS2;
  kern::Impl transform = kern::Impl::kLS2;
  bool fused_elementwise = true;  ///< bias+act+dropout(+residual) in one launch
  bool layer_batched_cross_attn = true;  ///< Fig. 5(b) batched K/V projection
  int seq_multiple = 1;  ///< DeepSpeed: lengths padded up to a multiple of 16
  bool supports_decoder = true;
};

Policy policy_for(System system);

/// Pipeline-parallel runtime hooks (DESIGN.md §9), installed by
/// core::train_step (core/train_step.h) while it drives microbatches
/// through the model.
/// Models call pp_mark() / LayerContext::pp_enter at every stage boundary:
/// ascending stages during forward, descending during backward, `payload`
/// the bytes the boundary activation (or its gradient) puts on the wire.
struct PpHooks {
  std::function<void(int stage, bool forward, int64_t payload_bytes)> enter;
};

/// Per-run state threaded through all layers.
class LayerContext {
 public:
  LayerContext(simgpu::Device& device, BufferAllocator* activation_alloc, Policy policy,
               uint64_t seed)
      : kern(device, activation_alloc, seed),
        policy(policy),
        act_alloc_(activation_alloc ? activation_alloc : heap_allocator()) {}

  /// Allocate an activation / temporary for the current step.
  Tensor alloc(Shape shape, DType dtype) {
    return Tensor::empty(std::move(shape), dtype, act_alloc_);
  }

  /// Allocate an activation that tensor parallelism shards 1/k per device
  /// (DESIGN.md §7): the returned tensor is FULL-shape (the emulation runs
  /// the unsharded arithmetic, which is bitwise what the shards reassemble
  /// to) and heap-backed, while one shard's bytes are reserved from the
  /// device activation allocator so per-device memory accounting — arena
  /// sizing, capacity scans, OOM — sees what a real TP rank would allocate.
  /// Reservations live until release_tp_reservations() (Session::end_step).
  /// Identical to alloc() when TP is off.
  Tensor alloc_shard(Shape shape, DType dtype) {
    const int k = tp_size();
    if (k <= 1) return alloc(std::move(shape), dtype);
    const int64_t shard_bytes = static_cast<int64_t>(
        (shape.numel() * static_cast<int64_t>(dtype_size(dtype)) + k - 1) / k);
    tp_reservations_.push_back(
        Tensor::empty({shard_bytes}, DType::kU8, act_alloc_));
    return Tensor::empty(std::move(shape), dtype);
  }

  /// Drop the per-step shard reservations (before the arena's end-of-step
  /// reset, which asserts everything was returned).
  void release_tp_reservations() { tp_reservations_.clear(); }

  simgpu::Device& device() { return kern.dev; }
  BufferAllocator* activation_allocator() { return act_alloc_; }
  int tp_size() const { return tp_group ? tp_group->tp_size() : 1; }

  /// Swap the activation allocator (and the kernel scratch allocator, which
  /// aliases it). A pp > 1 train step uses this at stage boundaries: stage 0's
  /// activations live in the session arena — the simulated rank-0 memory —
  /// while stages >= 1 charge a private remote-stage allocator, so rank 0's
  /// footprint reflects only the layers it would actually host.
  void set_activation_allocator(BufferAllocator* a) {
    act_alloc_ = a ? a : heap_allocator();
    kern.scratch = act_alloc_;
  }

  /// Notify the train step of a stage boundary (no-op without PP).
  void pp_enter(int stage, bool forward, int64_t payload_bytes = 0) {
    if (pp && pp->enter) pp->enter(stage, forward, payload_bytes);
  }

  kern::KernelContext kern;
  Policy policy;
  /// Tensor-parallel communicator (DESIGN.md §7), or nullptr when TP is
  /// off. Installed by the run's owner (bench/test) after session creation;
  /// TP-enabled layers charge their collectives through it.
  dist::ProcessGroup* tp_group = nullptr;
  /// Loss scale the criterion multiplies into the backward seed, so FP16
  /// gradients stay above the representable range's floor (and survive an
  /// FP16 wire). train_step sets it from the trainer's expected scale each
  /// step; the trainer divides it back out during the update.
  float loss_scale = 1.0f;
  /// Pipeline-parallel hooks, or nullptr when PP is off (core::train_step
  /// installs them for the microbatch loop of a pp > 1 step).
  PpHooks* pp = nullptr;
  /// Running double accumulators for the loss (and the secondary metric —
  /// BERT/ViT accuracy) under microbatched execution: when non-null the
  /// criterion continues these across microbatches so the final float cast
  /// is bitwise the full-batch reduction's. Null outside PP.
  double* pp_loss_carry = nullptr;
  double* pp_metric_carry = nullptr;
  /// Global loss denominator override (valid tokens for token criteria,
  /// batch size for classification) under microbatched execution: each
  /// microbatch sees only its slice, but the gradient scale 1/denominator
  /// must use the FULL batch's count to match the single-batch run. 0 = off.
  int64_t pp_denominator = 0;
  /// True while the step's LAST microbatch runs: layers that held work back
  /// across microbatches (EmbeddingLayer's deferred tied-table scatters)
  /// must flush it during this backward. Always false outside PP.
  bool pp_flush = false;

 private:
  BufferAllocator* act_alloc_;
  std::vector<Tensor> tp_reservations_;
};

/// Pad a sequence length up to the policy's required multiple (DeepSpeed's
/// ×16 restriction; identity for everyone else).
int64_t pad_length(const Policy& policy, int64_t len);

}  // namespace ls2::layers
