// Multi-head attention sublayers (pre-LayerNorm, residual inside).
//
//   SelfAttention:  y = x + Dropout(W_out · MHA(LN(x)) + b_out)
//   CrossAttention: queries come from the decoder stream; keys/values are
//     provided by the caller in head layout [B, N, Ls, D]. Under LightSeq2
//     the decoder stack computes them for ALL layers with one batched GEMM
//     (layer-batched cross attention, Fig. 5b); baselines compute them per
//     layer. Backward returns dx and accumulates into dk/dv.
//
// The backward pass draws its temporaries from the Fig. 8 shared-block plan
// under LightSeq2 (3·BLH + max(BL²N, 3·BLH) bytes in four blocks); baseline
// policies allocate each temporary individually from the dynamic allocator.
#pragma once

#include <optional>
#include <string>

#include "layers/layer_context.h"
#include "layers/params.h"
#include "layers/tp.h"

namespace ls2::layers {

struct AttentionConfig {
  int64_t hidden = 512;
  int64_t heads = 8;
  float attn_dropout = 0.1f;
  float out_dropout = 0.1f;
  bool causal = false;
  /// Megatron split (DESIGN.md §7): QKV/Q projections column-parallel by
  /// heads, the per-head attention core local to each rank, the output
  /// projection row-parallel — one TP all-reduce after it in forward and
  /// one after the QKV dx in backward. LN params and b_out replicated.
  TpDecl tp;
  int64_t head_dim() const { return hidden / heads; }
};

/// Shared core: scores -> masked softmax -> dropout -> context -> merge ->
/// output projection -> bias+dropout+residual. Owns W_out/b_out.
class AttentionCore {
 public:
  AttentionCore(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// q/k/v: [B, N, Lq|Lk, D]; residual: [B, Lq, H]. Returns y [B, Lq, H].
  Tensor forward(LayerContext& ctx, const Tensor& q, const Tensor& k, const Tensor& v,
                 const Tensor& residual, const Tensor* key_lens);

  /// Inference-only forward (serving): same math as forward at dropout p = 0,
  /// nothing saved for backward. `causal` is explicit: prefill keeps the
  /// config's causal mask, cross attention passes false. k/v may be the
  /// per-lane cross K/V blocks [S, N, cross_len, D] whose tail rows key_lens
  /// masks off. Ends in infer_output.
  Tensor infer_forward(LayerContext& ctx, const Tensor& q, const Tensor& k, const Tensor& v,
                       const Tensor& residual, const Tensor* key_lens, bool causal);

  /// Serving epilogue: output projection of the head-merged context
  /// `merged` [B, Lq, H] plus bias and residual. Cached prefill and decode
  /// feed it kern::paged_attn's output directly.
  Tensor infer_output(LayerContext& ctx, const Tensor& merged, const Tensor& residual);

  /// Returns (dq, dk, dv) in head layout plus d_residual == dy contribution
  /// handled by the caller adding `dy` into its input gradient.
  struct CoreGrads {
    Tensor dq, dk, dv;
  };
  CoreGrads backward(LayerContext& ctx, const Tensor& dy);

  void release();

  const AttentionConfig& config() const { return cfg_; }

 private:
  AttentionConfig cfg_;
  ParamRegistry* params_;
  TpParam w_out_;
  ParamRef b_out_;

  struct Saved {
    Tensor q, k, v;          // head layout
    Tensor probs, probs_d;   // softmax output, after attention dropout
    Tensor attn_mask;        // u8
    Tensor merged;           // [B, Lq, H] context after head merge
    Tensor out_mask;         // u8, output dropout
    int64_t B = 0, Lq = 0, Lk = 0;
  };
  std::optional<Saved> saved_;
};

/// One cached prefill batch's rows in the paged K/V pools, built by
/// infer::KvCache::prefill_rows. The i32 [B] tensors are host-written heap
/// metadata read inside kernel bodies. Batch row b is decode lane lanes[b];
/// its query row i sits at logical position q_begin[b] + i = first + i and
/// attends rows [0, min(first + i + 1, kv_lens[b])); the prefill stores the
/// positions [write_begin[b], write_end[b]) — earlier rows already live in
/// shared prefix pages, later ones are padding.
struct PagedRows {
  Tensor block_table;  ///< i32 [lanes, pages_per_seq]
  Tensor lanes, q_begin, write_begin, write_end, kv_lens;
  int64_t first = 0;  ///< the batch computes prompt rows [first, L)
};

class SelfAttention {
 public:
  SelfAttention(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  Tensor forward(LayerContext& ctx, const Tensor& x, const Tensor* key_lens);
  Tensor backward(LayerContext& ctx, const Tensor& dy);
  void release();

  // --- serving (inference-only, no dropout, nothing saved) ---

  /// Uncached prefill (the encoder, and the full re-forward reference):
  /// causal (per config) attention over x [B, L, H] through the padded
  /// scores/context GEMMs; `key_lens` masks right-padded prompts.
  Tensor prefill(LayerContext& ctx, const Tensor& x, const Tensor* key_lens);

  /// Cached prefill of prompt rows [rows.first, L): x [B, L - first, H].
  /// This batch's K/V are stored into the paged pools (k_pool/v_pool
  /// [P, N, page, D]) first — positions [write_begin, write_end) — and one
  /// kern::paged_attn then attends every query row over its lane's pages in
  /// place, shared prefix rows included — bitwise-identical to attention
  /// over the full prompt.
  Tensor prefill(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                 const Tensor& v_pool, const PagedRows& rows);

  /// Single-query cached decode: x [S, 1, H]. This step's K/V are appended
  /// into the paged pools through the lane-indexed `block_table` at logical
  /// row `positions[s]`; then kern::paged_attn (Lq = 1) reads each lane's
  /// rows [0, attend_lens[s]) in place. block_table/positions/attend_lens
  /// are host-written heap i32 read inside kernel bodies: replay-time graph
  /// parameters.
  Tensor decode_step(LayerContext& ctx, const Tensor& x, const Tensor& k_pool,
                     const Tensor& v_pool, const Tensor& block_table,
                     const Tensor& positions, const Tensor& attend_lens);

 private:
  AttentionConfig cfg_;
  ParamRegistry* params_;
  ParamRef ln_gamma_, ln_beta_;
  TpParam w_qkv_, b_qkv_;
  AttentionCore core_;

  /// Serving front half: LayerNorm, QKV projection and head split of x
  /// [B, L, H] into q/k/v [B, N, L, D].
  struct Qkv {
    Tensor q, k, v;
  };
  Qkv infer_qkv(LayerContext& ctx, const Tensor& x);
  /// Serving back half over the pools: kern::paged_attn, then the output
  /// projection with x as the residual.
  Tensor infer_paged_attn(LayerContext& ctx, const Tensor& x, const Tensor& q,
                          const Tensor& k_pool, const Tensor& v_pool,
                          const Tensor& block_table, const Tensor* lanes,
                          const Tensor& q_begin, const Tensor& kv_lens);

  struct Saved {
    Tensor x, ln, mean, rstd;
  };
  std::optional<Saved> saved_;
};

class CrossAttention {
 public:
  CrossAttention(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// k/v: [B, N, Ls, D] precomputed by the caller.
  Tensor forward(LayerContext& ctx, const Tensor& x, const Tensor& k, const Tensor& v,
                 const Tensor* src_lens);
  /// Returns dx; ACCUMULATES key/value grads into dk/dv (head layout).
  Tensor backward(LayerContext& ctx, const Tensor& dy, const Tensor& dk, const Tensor& dv);
  void release();

  /// Serving forward (no dropout, nothing saved): x [B, Lq, H] queries over
  /// precomputed k/v — at decode time the per-slot cross K/V cache blocks
  /// [S, N, Ls_max, D], masked by src_lens.
  Tensor infer_forward(LayerContext& ctx, const Tensor& x, const Tensor& k, const Tensor& v,
                       const Tensor* src_lens);

 private:
  AttentionConfig cfg_;
  ParamRegistry* params_;
  ParamRef ln_gamma_, ln_beta_;
  TpParam w_q_, b_q_;
  AttentionCore core_;

  struct Saved {
    Tensor x, ln, mean, rstd;
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::layers
