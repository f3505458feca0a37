// Multi-head attention sublayers (pre-LayerNorm, residual inside).
//
//   SelfAttention:  y = x + Dropout(W_out · MHA(LN(x)) + b_out)
//   CrossAttention: queries come from the decoder stream; keys/values are
//     provided by the caller in head layout [B, N, Ls, D]. Under LightSeq2
//     the decoder stack computes them for ALL layers with one batched GEMM
//     (layer-batched cross attention, Fig. 5b); baselines compute them per
//     layer. Backward returns dx and accumulates into dk/dv.
//
// Serving runs the same forward inside a LayerContext::InferenceScope
// (dropout off, nothing saved). A cached batch — a packed serving step, or
// the full-lane decode batch — replaces only SelfAttention's middle: it
// keeps the LN -> QKV -> split front half and the output-projection
// epilogue (AttentionCore::output), and attends through the paged KV pools
// with kern::paged_attn.
//
// Under LightSeq2 the attention core between the projections is two
// launches, kern::attn_fw and kern::attn_bw: no [B, N, Lq, Lk] scores,
// probabilities or dropout mask reach device memory, and the backward's
// temporaries come from a shared-block plan (Fig. 8 without its dctx and dS
// blocks). The baselines run the unfused chain of their released kernels
// and allocate each temporary individually from the dynamic allocator.
#pragma once

#include <optional>
#include <string>

#include "kernels/attention.h"
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
/// output projection -> bias+dropout+residual. Owns W_out/b_out. Under
/// LightSeq2 everything before the output projection is one kern::attn_fw
/// launch; the baselines launch the chain.
class AttentionCore {
 public:
  AttentionCore(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// q/k/v: [B, N, Lq|Lk, D]; residual: [B, Lq, H]. Returns y [B, Lq, H].
  Tensor forward(LayerContext& ctx, const Tensor& q, const Tensor& k, const Tensor& v,
                 const Tensor& residual, const Tensor* key_lens);

  /// Epilogue of forward: output projection of the head-merged context
  /// `merged` [B, Lq, H], then bias + dropout + residual; `out_mask`
  /// receives the dropout mask. A cached batch feeds it kern::paged_attn's
  /// output directly.
  Tensor output(LayerContext& ctx, const Tensor& merged, const Tensor& residual,
                Tensor* out_mask = nullptr);

  /// Returns (dq, dk, dv) in head layout plus d_residual == dy contribution
  /// handled by the caller adding `dy` into its input gradient. With
  /// `dk_acc` and `dv_acc` (cross attention's encoder-side gradients) the
  /// key and value gradients are ADDED into them, and dk/dv are those
  /// tensors: inside kern::attn_bw under LightSeq2, by two add launches
  /// after the chain otherwise.
  struct CoreGrads {
    Tensor dq, dk, dv;
  };
  CoreGrads backward(LayerContext& ctx, const Tensor& dy, const Tensor& dk_acc = {},
                     const Tensor& dv_acc = {});

  void release();

  const AttentionConfig& config() const { return cfg_; }

 private:
  AttentionConfig cfg_;
  ParamRegistry* params_;
  TpParam w_out_;
  ParamRef b_out_;

  struct Saved {
    kern::AttnInputs attn;   // q/k/v in head layout, masks, dropout stream
    Tensor merged;           // [B, Lq, H] context after head merge
    Tensor out_mask;         // u8, output dropout
    Tensor stats;            // LightSeq2: f32 [B, N, Lq] from attn_fw
    Tensor probs, probs_d;   // baselines: softmax output, after attention dropout
    Tensor attn_mask;        // baselines: u8
  };
  std::optional<Saved> saved_;
};

/// One cached batch's rows in the paged K/V pools, as
/// infer::KvCache::begin_step builds them. The i32 [B] tensors are
/// host-written heap metadata read inside kernel bodies. Batch row b is
/// lane lanes[b]; its query row i sits at logical position q_begin[b] + i
/// and attends rows [0, min(q_begin[b] + i + 1, kv_lens[b])), and it stores
/// only the positions [write_begin[b], write_end[b]). The lane list and the write
/// range are optional: undefined, they mean the full-lane batch (row b is
/// lane b) that stores exactly the rows it computes — a pure decode step.
/// A packed step is a lane-listed batch of one-row batch rows (decode rows,
/// then prompt-chunk rows, then padding rows that attend and write
/// nothing) whose `out_rows` names the rows it samples from.
struct PagedRows {
  Tensor block_table;  ///< i32 [lanes, pages_per_seq]
  Tensor lanes, q_begin, write_begin, write_end, kv_lens;
  /// i32 [n], optional: the batch rows whose logits the forward returns, in
  /// order (a packed step's one row per lane). Undefined: every row.
  Tensor out_rows;
};

/// A cached batch as one layer sees it: the layer's paged K/V pools
/// [P, N, page, D] and the batch's rows.
struct PagedKv {
  const Tensor& k_pool;
  const Tensor& v_pool;
  const PagedRows& rows;
};

class SelfAttention {
 public:
  SelfAttention(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// x: [B, L, H]; key_lens (i32 [B], optional) masks padded keys.
  ///
  /// With `paged` (serving, causal only): x holds the batch's computed rows.
  /// Their K/V are stored into the paged pools first, then one
  /// kern::paged_attn attends every query row over its lane's pages in place
  /// — shared prefix rows included — bitwise-identical to attention over
  /// the full sequence. The rows' kv_lens take the place of key_lens.
  /// Decode is the one-row case.
  Tensor forward(LayerContext& ctx, const Tensor& x, const Tensor* key_lens,
                 const PagedKv* paged = nullptr);
  Tensor backward(LayerContext& ctx, const Tensor& dy);
  void release();

 private:
  AttentionConfig cfg_;
  ParamRegistry* params_;
  ParamRef ln_gamma_, ln_beta_;
  TpParam w_qkv_, b_qkv_;
  AttentionCore core_;

  /// Front half of forward: LayerNorm, QKV projection and head split of
  /// x [B, L, H] into q/k/v [B, N, L, D]. Training also returns the
  /// LayerNorm outputs backward needs and the projection output, held to
  /// the end of forward; serving frees them here.
  struct Qkv {
    Tensor q, k, v;
    Tensor ln, mean, rstd, qkv;
  };
  Qkv project_qkv(LayerContext& ctx, const Tensor& x);

  struct Saved {
    Tensor x, ln, mean, rstd;
  };
  std::optional<Saved> saved_;
};

class CrossAttention {
 public:
  CrossAttention(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// k/v: [B, N, Ls, D] precomputed by the caller, masked by src_lens.
  Tensor forward(LayerContext& ctx, const Tensor& x, const Tensor& k, const Tensor& v,
                 const Tensor* src_lens);
  /// Returns dx; ACCUMULATES key/value grads into dk/dv (head layout).
  Tensor backward(LayerContext& ctx, const Tensor& dy, const Tensor& dk, const Tensor& dv);
  void release();

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
