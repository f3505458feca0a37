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
//               and the dropout mask, writes dQ, dK and dV, and reduces the
//               projection-bias gradients of the rows it wrote.
//   paged_attn  the forward of every cached serving batch, reading K/V in
//               place from the paged pools.
//
// attn_fw and attn_bw address Q, K and V (and dQ, dK and dV) through
// AttnOperand: in head layout, or in place in the projection GEMMs'
// token-major output rows with the projection bias added on load, so
// LightSeq2's training step launches no head split or merge around them.
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

/// One operand of the fused attention core: Q, K or V, or the gradient of
/// one. Row (b, n, l), head n of token l in batch row b, is D contiguous
/// elements in either of two layouts:
///
///   head layout  t [B, N, L, D]: the split tensors of the baselines' chain,
///                and of callers that hold K/V that way;
///   rows         the N·D columns [col, col + N·D) of t [B, L, C], a
///                projection GEMM's token-major output, addressed in place
///                through FlashAttention's batch, head and row strides
///                (L·C, D, C).
///
/// `bias` [N·D], optional, is added as a row is loaded,
/// T(float(x) + float(bias)): bias_split_transpose_fw's arithmetic, so the
/// projection bias needs no launch of its own. `dbias` [N·D], optional and
/// rows only, makes attn_bw fold the column sums of the gradient rows it
/// stored into it (bias_grad's chain; see detail::launch_folding_bias_grad).
struct AttnOperand {
  AttnOperand() = default;
  /// A head-layout operand; an undefined tensor is an undefined operand.
  /// Implicit, so a head-layout tensor passes wherever an operand goes.
  AttnOperand(Tensor head_layout);
  /// The block of `heads` heads of `head_dim` at column `col` of rows
  /// t [B, L, C].
  static AttnOperand rows(Tensor t, int64_t col, int64_t heads, int64_t head_dim,
                          Tensor bias = {}, Tensor dbias = {});

  Tensor t, bias, dbias;
  int64_t B = 0, N = 0, L = 0, D = 0;
  int64_t col = 0;  ///< rows: the block's first column
  bool is_rows = false;

  bool defined() const { return t.defined(); }
  DType dtype() const { return t.dtype(); }
  /// The bytes of the operand's B·N·L·D elements.
  int64_t bytes() const { return B * N * L * D * static_cast<int64_t>(dtype_size(t.dtype())); }
  /// Element offset of row (b, n, l) in `t`.
  int64_t row(int64_t b, int64_t n, int64_t l) const {
    return is_rows ? (b * L + l) * t.shape()[2] + col + n * D : ((b * N + n) * L + l) * D;
  }
};

/// What both directions of the fused attention core read: q [B, N, Lq, D],
/// k and v [B, N, Lk, D] as operands, the masks, the scale and the dropout.
struct AttnInputs {
  AttnOperand q, k, v;
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
  /// Tensor-parallel ranks the heads are split over. A rank's operands are
  /// its head slice of each projection group (ShardSpec::groups lays its
  /// QKV rows out as [q; k; v], N/shards heads each); the emulation runs
  /// the full rows, which is bitwise what the slices compute
  /// (layers/tp.h). The occupancy model sees B·N/shards heads, as the
  /// replaced GEMMs' charges do; the caller scales bytes and flops with its
  /// TpChargeScale.
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
/// shapes, memory efficiency 0.85, tensor cores in FP16. The 0.85 holds on
/// strided rows: each (token, head) row is D contiguous elements, one
/// coalesced segment (128 B at D = 64 in FP16). The bytes are Q, K, V and
/// their biases read, `merged` and `stats` written: the scores,
/// probabilities and mask never reach device memory.
void attn_fw(KernelContext& kc, const AttnInputs& in, const Tensor& merged,
             const Tensor& stats);

/// Fused attention backward, one launch ("ls2.attn_bw"). `dmerged`
/// [B, Lq, N·D] is the gradient of attn_fw's `merged`; `stats` is what that
/// forward wrote. Recomputes each row's scores, probabilities and dropout
/// mask, and writes dq (shaped like q), dk and dv (like k), in head layout
/// or straight into projection-gradient rows. With `accumulate_kv` the key
/// and value gradients are ADDED into dk and dv, each rounded to the dtype
/// first, then T(float(g) + float(acc)) as the baselines' add launch sums
/// them (cross attention's encoder-side gradients). A gradient operand's
/// `dbias` then receives the column sums of its stored rows in the same
/// launch: one fold per run of operands that continue one another in one
/// rows tensor.
///
/// The softmax backward's row dot sum_j dP_j·P_j equals rowsum(dO ∘ O): a
/// device kernel reads the context O for it, so `merged` is charged as
/// read. The host body sums it the chain's way, over the dropped dS in
/// double as softmax_bw does, which is what keeps it bitwise.
///
/// Charged like attn_fw, over the four backward GEMM shapes:
/// 10·B·N·Lq·Lk·D flops (the scores are recomputed). Bytes: dmerged, Q, K,
/// V, their biases, merged and stats read, plus dk and dv when
/// accumulating; dq, dk and dv written. The folds add their charge
/// (detail::launch_folding_bias_grad).
void attn_bw(KernelContext& kc, const AttnInputs& in, const Tensor& dmerged,
             const Tensor& merged, const Tensor& stats, const AttnOperand& dq,
             const AttnOperand& dk, const AttnOperand& dv, bool accumulate_kv = false);

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
