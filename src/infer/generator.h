// Token generation policy for the serving engine: greedy decoding or
// temperature / top-k sampling over a logits batch.
//
// Sampling keeps the counter-based RNG discipline of PR 3: the stream for
// each draw comes from KernelContext::next_dropout_stream(), whose per-step
// base advances outside any captured graph (core::Session::begin_step /
// begin_step_rng) — so every sampled token is a pure function of
// (seed, step, slot) and a replayed decode step emits bitwise the tokens an
// eager one would.
#pragma once

#include "kernels/sampling.h"

namespace ls2::infer {

struct SamplingConfig {
  bool greedy = true;       ///< argmax decoding (ignores the fields below)
  float temperature = 1.0f; ///< softmax temperature for sampled decoding
  int64_t top_k = 0;        ///< restrict sampling to the k best logits (0: all)
};

class Generator {
 public:
  explicit Generator(SamplingConfig cfg = {}) : cfg_(cfg) {}

  const SamplingConfig& config() const { return cfg_; }

  /// Pick the next token for every row of logits [rows, vocab] into `out`
  /// (i32 [rows]). One device launch; part of the captured decode region.
  void next_tokens(kern::KernelContext& kc, kern::Impl impl, const Tensor& logits,
                   const Tensor& out) {
    if (cfg_.greedy) {
      kern::argmax_rows(kc, impl, logits, out);
    } else {
      kern::sample_topk(kc, impl, logits, out, cfg_.top_k, cfg_.temperature,
                        kc.next_dropout_stream());
    }
  }

 private:
  SamplingConfig cfg_;
};

}  // namespace ls2::infer
