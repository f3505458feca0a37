// Embedding layer kernels (§IV-A.2).
//
// Forward:  y(w, p) = Dropout(s * E[w] + P[p]).
// LightSeq2 performs lookup, scaling, positional add and dropout in ONE
// launch; the baseline launches lookup / scale / pos-add / dropout
// separately, materialising each intermediate.
//
// Backward: grad E[w] = s * sum over every occurrence of token w of
// (mask ⊙ dy) — a sparse aggregation implemented with atomic adds on the
// device (here: conflict-free column-parallel accumulation computing the
// same sums). The positional table is sinusoidal and receives no gradient.
#pragma once

#include "kernels/dropout.h"  // Impl
#include "kernels/kernel_context.h"

namespace ls2::kern {

/// Fill `pos` [Lmax, H] with the sinusoidal position encoding.
void init_sinusoidal_positions(const Tensor& pos);

/// ids: [B, L] i32; emb: [V, H]; pos: [Lmax, H]; y: [B, L, H]. Row b's
/// tokens sit at positions [0, L), or at [starts[b], starts[b] + L) with
/// per-row `starts` (i32 [B], host-written heap metadata: a cached batch,
/// whose lanes sit at their own lengths). mask: [B, L, H] u8 dropout mask
/// kept for backward; an undefined mask (serving, p = 0) is neither drawn
/// nor written, and the arithmetic matches p = 0 with a mask bitwise. pad
/// ids produce zero rows.
void embedding_fw(KernelContext& kc, Impl impl, const Tensor& ids, const Tensor& emb,
                  const Tensor& pos, const Tensor& y, const Tensor& mask, float scale,
                  float p, uint64_t stream, int32_t pad_id = -1,
                  const Tensor* starts = nullptr);

/// Accumulate token-embedding gradients into d_emb. `zero_first` zeroes the
/// table in its own launch before scattering; pass false when the training
/// step already zeroed all gradients (required for tied embeddings, where
/// the output projection accumulated into d_emb earlier in the backward).
void embedding_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& ids,
                  const Tensor& mask, const Tensor& d_emb, float scale, float p,
                  int32_t pad_id = -1, bool zero_first = true);

}  // namespace ls2::kern
