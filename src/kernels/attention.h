// Fused attention kernels.
//
// The attention core is a chain of memory-bound steps around two batched
// GEMMs: scores = scale·Q·K^T, the masked softmax, the probability dropout,
// context = P·V and the head merge, and seven launches back. Unfused, each
// step sends the [B, N, Lq, Lk] scores, probabilities or dropout mask
// through device memory. The kernels here keep a query row's scores and
// probabilities on chip (FlashAttention's plan, PAPERS.md):
//
//   attn_fw     LightSeq2's training (and cacheless serving) forward: one
//               launch writes the head-merged context and a per-row softmax
//               statistic.
//   attn_bw     its backward: one launch recomputes scores, probabilities
//               and the dropout mask, and writes dQ, dK and dV.
//   paged_attn  the forward of every cached serving batch, reading K/V in
//               place from the paged pools.
//
// All three run the unfused chain's arithmetic, bitwise: the scale is
// applied to Q as the scores GEMM applies alpha, values are rounded to the
// dtype between the chain's stages, sums accumulate in FP32 in ascending
// index order with the host GEMM's exact-zero skips (gemm/gemm.cc), the
// masked row is attn_softmax_row, the dropout draws dropout_fw's mask, and
// the backward is softmax_bw's. The forward kernels share one row routine,
// so training and serving attend with one arithmetic. The baselines keep
// the chain (layers/attention.cc): it models their released kernels.
#pragma once

#include "kernels/kernel_context.h"

namespace ls2::kern {

/// What both directions of the fused attention core read: q [B, N, Lq, D],
/// k and v [B, N, Lk, D] in head layout, the masks, the scale and the
/// dropout.
struct AttnInputs {
  Tensor q, k, v;
  bool causal = false;  ///< query row i attends keys [0, i + 1) at most
  Tensor key_lens;      ///< i32 [B], optional: batch row b attends keys [0, key_lens[b])
  float scale = 1.0f;   ///< applied to Q as the scores GEMM applies alpha
  /// Dropout on the probabilities: p (0: no dropout stage), its stream, and
  /// the microbatch (KernelContext::microbatch at the forward). Element
  /// (b, n, i, j) is kept iff rng.uniform(stream, microbatch·B·N·Lq·Lk +
  /// ((b·N + n)·Lq + i)·Lk + j) >= p, dropout_fw's draw over the
  /// probability tensor, so the backward regenerates the forward's mask.
  float dropout = 0.0f;
  uint64_t stream = 0;
  uint64_t microbatch = 0;
  /// Tensor-parallel ranks the heads are split over. The occupancy model
  /// sees B·N/shards heads, as the replaced GEMMs' charges do; the caller
  /// scales bytes and flops with its TpChargeScale.
  int64_t shards = 1;
};

/// Fused attention forward, one launch ("ls2.attn_fw"): per query row the
/// scores, masked softmax, dropout and probability-weighted sum of V. The
/// context lands head-merged in `merged` [B, Lq, N·D]. A defined `stats`
/// (f32 [B, N, Lq]) receives each row's softmax normaliser
/// 1 / sum_j exp(s_j - max), which attn_bw needs; serving passes none.
///
/// Charged like the two batched GEMMs it replaces: 4·B·N·Lq·Lk·D flops
/// over the full tile grid whatever the masks (a static launch, so a graph
/// node), at the lower gemm::gemm_utilization of the scores and context
/// shapes, memory efficiency 0.85, tensor cores in FP16. The bytes are Q, K
/// and V read, `merged` and `stats` written: the scores, probabilities and
/// mask never reach device memory.
void attn_fw(KernelContext& kc, const AttnInputs& in, const Tensor& merged,
             const Tensor& stats);

/// Fused attention backward, one launch ("ls2.attn_bw"). `dmerged`
/// [B, Lq, N·D] is the gradient of attn_fw's `merged`; `stats` is what that
/// forward wrote. Recomputes each row's scores, probabilities and dropout
/// mask, and writes dq [B, N, Lq, D], dk and dv [B, N, Lk, D]. With
/// `accumulate_kv` the key and value gradients are ADDED into dk and dv,
/// each rounded to the dtype first, then T(float(g) + float(acc)) as the
/// baselines' add launch sums them (cross attention's encoder-side
/// gradients).
///
/// The softmax backward's row dot sum_j dP_j·P_j equals rowsum(dO ∘ O): a
/// device kernel reads the context O for it, so `merged` is charged as
/// read. The host body sums it the chain's way, over the dropped dS in
/// double as softmax_bw does, which is what keeps it bitwise.
///
/// Charged like attn_fw, over the four backward GEMM shapes:
/// 10·B·N·Lq·Lk·D flops (the scores are recomputed). Bytes: dmerged, Q, K,
/// V, merged and stats read, plus dk and dv when accumulating; dq, dk and
/// dv written.
void attn_bw(KernelContext& kc, const AttnInputs& in, const Tensor& dmerged,
             const Tensor& merged, const Tensor& stats, const Tensor& dq, const Tensor& dk,
             const Tensor& dv, bool accumulate_kv = false);

/// Fused attention over the paged pools [P, N, page, D], read in place —
/// the one kernel behind every cached batch. Query row i of batch row b (q
/// [B, N, Lq, D]) belongs to lane `lanes[b]` (nullptr: lane b, the full-lane
/// decode batch), sits at logical position q_begin[b] + i and attends the
/// lane's rows [0, min(q_begin[b] + i + 1, kv_lens[b])) through
/// `block_table` (i32 [lanes, pages_per_seq]) — the causal mask plus the
/// key-length mask of attn_softmax_fw. The context lands head-merged in
/// `merged` [B, Lq, N*D]. A row that attends nothing (a free lane of length
/// 0) writes zeros. The pure decode step is the Lq = 1 full-lane case
/// (KvCache::begin_step(0)). Serving has no dropout: the row is attn_fw's
/// without its dropout stage, so bitwise the unfused chain over a
/// contiguous cache.
///
/// A BOUNDED launch (simgpu::Device::launch), charged at the CUDA-core peak:
/// the graph node's bound is every row at full reach (B * Lcap K/V rows and
/// B * Lq * Lcap query-key pairs, Lcap = pages_per_seq * page); each launch
/// charges the K/V rows it actually reads and the pairs it actually
/// attends. Consecutive batch rows of one lane at consecutive positions
/// (q_begin[b + 1] == q_begin[b] + Lq) form one SEGMENT — a packed step's
/// prompt chunk — which reads its lane's rows up to its furthest reach
/// once, and its lane / q_begin / kv_len once, as a varlen attention kernel
/// does: a run of c one-row batch rows charges exactly the [1, c] prompt
/// batch. Every other batch row is its own segment, reading
/// min(q_begin + Lq, kv_len) rows — the decode batch and [B, Lq] batches
/// charge row by row.
void paged_attn(KernelContext& kc, const Tensor& q, const Tensor& k_pool, const Tensor& v_pool,
                const Tensor& block_table, const Tensor* lanes, const Tensor& q_begin,
                const Tensor& kv_lens, float scale, const Tensor& merged);

}  // namespace ls2::kern
