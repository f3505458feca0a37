// Layout-change kernels around attention.
//
// The baselines' attention runs batched GEMMs per head: activations
// [B, L, H] must become [B, N, L, D] (N heads of depth D = H/N) before them
// and come back after. LightSeq2's "Bias adding & Reshape Q,K,V" kernel
// (Fig. 4) fuses the projection bias into the split, which DeepSpeed
// launches too; the Fairseq baselines launch a bias kernel plus one
// transpose copy per head tensor. LightSeq2's training attention needs none
// of them: kern::attn_fw / attn_bw read and write the projection rows in
// place (kernels/attention.h). Only the baselines and the paged serving
// branch, whose KV pools take head layout, split.
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
/// A separate bias_grad reduces the projection-bias gradient.
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
// (table[lane][pos / page], pos % page). The table and the per-row tensors
// (layers::PagedRows) are host-written heap metadata — replay-time graph
// parameters read inside kernel bodies, so the launch sequence stays STATIC
// across serving steps (the capture contract). Keys and values move in ONE
// fused LightSeq2 launch under every policy: serving has no baseline KV path.
// kern::paged_attn (kernels/attention.h) attends over the same pools.

/// Paged write of one cached batch: row i of k_new/v_new [B, N, Lq, D] is
/// logical position q_begin[b] + i of lane `lanes[b]` and lands in the
/// lane's pages through `block_table`. An undefined `lanes` is the full-lane
/// batch (row b is lane b). With a write range only the positions
/// [write_begin[b], write_end[b]) are stored — in a packed step, rows that
/// shared prefix pages already hold, the decode rows of free and
/// mid-prompt lanes, and padding rows store nothing; an undefined range
/// stores every computed row. The pure decode step is the Lq = 1 full-lane
/// case without a range: free lanes (all-trash table rows at q_begin 0)
/// write into the trash page.
void kv_cache_store_paged(KernelContext& kc, const Tensor& k_new, const Tensor& v_new,
                          const Tensor& k_pool, const Tensor& v_pool,
                          const Tensor& block_table, const Tensor& lanes,
                          const Tensor& q_begin, const Tensor& write_begin,
                          const Tensor& write_end);

/// Row gather: y[i] = x[index[i]] for x [R, ...], index i32 [n] (host-written
/// heap metadata), y [n, ...] with x's row size. One static launch — a
/// packed serving step picks each lane's sampled row with it.
void gather_rows(KernelContext& kc, const Tensor& x, const Tensor& index, const Tensor& y);

/// Copy-on-write: duplicate the first `rows` token rows of page `src_page`
/// into `dst_page` in both pools. Eager-only (page bookkeeping runs outside
/// captured decode regions).
void kv_page_copy(KernelContext& kc, const Tensor& k_pool, const Tensor& v_pool,
                  int64_t src_page, int64_t dst_page, int64_t rows);

}  // namespace ls2::kern
