// Layout-change kernels around attention.
//
// Attention wants scores per head: activations [B, L, H] must become
// [B, N, L, D] (N heads of depth D = H/N) before the batched GEMMs and come
// back after. LightSeq2 fuses the projection bias into the same pass
// ("Bias adding & Reshape Q,K,V" in Fig. 4); the baseline launches a bias
// kernel plus one transpose copy per head tensor.
#pragma once

#include <vector>

#include "kernels/dropout.h"  // Impl
#include "kernels/kernel_context.h"

namespace ls2::kern {

/// x: [B, L, G*H] (projection GEMM output for G stacked heads groups, e.g.
/// G=3 for QKV), bias: [G*H]. outs: G tensors [B, N, L, D].
void bias_split_transpose_fw(KernelContext& kc, Impl impl, const Tensor& x,
                             const Tensor& bias, const std::vector<Tensor>& outs);

/// Backward of the split: douts (G x [B,N,L,D]) merge into dx [B, L, G*H].
/// (The projection-bias gradient is a separate bias_grad reduction.)
void split_transpose_bw(KernelContext& kc, Impl impl, const std::vector<Tensor>& douts,
                        const Tensor& dx);

/// [B, N, L, D] -> [B, L, H] after attention-weighted values.
void merge_heads_fw(KernelContext& kc, Impl impl, const Tensor& x, const Tensor& y);

/// [B, L, H] -> [B, N, L, D].
void merge_heads_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& dx);

// --- KV-cache layout kernels (incremental decoding, src/infer/) ---
//
// Self-attention K/V live in a paged pool [P, N, page, D] (P fixed-size
// pages; infer::KvCache owns the page bookkeeping). A block table
// (i32 [S, pages_per_seq], S decode lanes) maps each lane's logical token
// positions to pool pages; every kernel below addresses rows as
// (table[lane][pos / page], pos % page). The table, positions and lens
// tensors are host-written heap metadata — replay-time graph parameters
// read inside kernel bodies, so the launch sequence stays STATIC across
// decode steps (the capture contract). Keys and values move in ONE fused
// launch; only the prefill writers keep a baseline (one copy kernel per
// tensor) for the non-LightSeq2 policies that prefill.
//
// Cross-attention K/V blocks stay contiguous [S, N, cross_len, D]
// (write-once at encode time) and use the plain kv_cache_store below.

/// Contiguous prefill write (CROSS blocks only): k_new/v_new [B, N, Lq, D]
/// land in cache slots `slots` (i32 [B]) at rows [0, Lq).
void kv_cache_store(KernelContext& kc, Impl impl, const Tensor& k_new, const Tensor& v_new,
                    const Tensor& k_cache, const Tensor& v_cache, const Tensor& slots);

/// Paged prefill write: row i of k_new/v_new [B, N, Lq, D] is logical
/// position q_begin[b] + i of lane `lanes[b]`; the rows at positions
/// [write_begin[b], write_end[b]) land in the lane's pages through
/// `block_table`. Positions below write_begin already live in shared prefix
/// pages and must not be rewritten; positions at or past write_end exceed
/// the lane's backed capacity (padded prompt tails).
void kv_cache_store_paged(KernelContext& kc, Impl impl, const Tensor& k_new,
                          const Tensor& v_new, const Tensor& k_pool, const Tensor& v_pool,
                          const Tensor& block_table, const Tensor& lanes,
                          const Tensor& q_begin, const Tensor& write_begin,
                          const Tensor& write_end);

/// Paged decode append: k_new/v_new [S, N, 1, D] land at logical row
/// `positions[s]` (i32 [S]) of lane s through `block_table` — one token per
/// lane per step. Free lanes' table rows point at the trash page.
void kv_cache_append_paged(KernelContext& kc, const Tensor& k_new, const Tensor& v_new,
                           const Tensor& k_pool, const Tensor& v_pool,
                           const Tensor& block_table, const Tensor& positions);

/// Fused attention over the paged pools, read in place — the one kernel
/// behind cached prefill and decode. Query row i of batch row b (q
/// [B, N, Lq, D]) belongs to lane `lanes[b]` (nullptr: lane b, the full-lane
/// decode batch), sits at logical position q_begin[b] + i and attends the
/// lane's rows [0, min(q_begin[b] + i + 1, kv_lens[b])) through
/// `block_table` — the causal mask plus the key-length mask of
/// attn_softmax_fw. Scores, masked softmax and the probability-weighted sum
/// of V run in one launch, and the context lands head-merged in `merged`
/// [B, Lq, N*D]. A row that attends nothing (a free lane of length 0) writes
/// zeros. Decode is the Lq = 1 case with q_begin = positions and kv_lens =
/// attend_lens.
///
/// Bitwise equal to the unfused path over a contiguous cache (scores GEMM,
/// attn_softmax_fw, context GEMM, merge_heads_fw): scores accumulate
/// (scale*q_d)*k_d in ascending d, the softmax is attn_softmax_row, and the
/// context accumulates p_j*v_j in FP32 in ascending j across page
/// boundaries, rounded once — both sums skip exact-zero terms like the host
/// GEMM does.
///
/// A BOUNDED launch (simgpu::Device::launch), charged at the CUDA-core peak:
/// the graph node's bound is every lane at full reach (B * Lcap K/V rows and
/// B * Lq * Lcap query-key pairs, Lcap = pages_per_seq * page); each launch
/// charges the K/V rows each lane actually reads (min(q_begin + Lq, kv_len))
/// and the pairs it actually attends.
void paged_attn(KernelContext& kc, const Tensor& q, const Tensor& k_pool, const Tensor& v_pool,
                const Tensor& block_table, const Tensor* lanes, const Tensor& q_begin,
                const Tensor& kv_lens, float scale, const Tensor& merged);

/// Copy-on-write: duplicate the first `rows` token rows of page `src_page`
/// into `dst_page` in both pools. Eager-only (page bookkeeping runs outside
/// captured decode regions).
void kv_page_copy(KernelContext& kc, const Tensor& k_pool, const Tensor& v_pool,
                  int64_t src_page, int64_t dst_page, int64_t rows);

}  // namespace ls2::kern
