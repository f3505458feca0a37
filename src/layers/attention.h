// Multi-head attention sublayers (pre-LayerNorm, residual inside).
//
//   SelfAttention:  y = x + Dropout(W_out · MHA(LN(x)) + b_out)
//   CrossAttention: queries come from the decoder stream; keys/values are
//     provided by the caller as attention operands. Under LightSeq2 the
//     decoder stack computes them for ALL layers with one batched GEMM
//     (layer-batched cross attention, Fig. 5b) and hands each layer its
//     column blocks of the GEMM's rows; baselines compute them per layer and
//     split them into head layout. Backward returns dx and accumulates into
//     dk/dv.
//
// Under LightSeq2 the attention core between the projections is two
// launches, kern::attn_fw and kern::attn_bw. They read Q, K and V in place
// from the projection GEMMs' token-major rows, adding the projection bias
// as they load, and attn_bw writes dQ, dK and dV straight into the
// projection-gradient rows and reduces the bias gradients in the same
// launch: no head split or merge, no [B, N, Lq, Lk] scores, probabilities
// or dropout mask in device memory. The backward's memory is one
// shared-block plan (Fig. 8): the output-dropout and head-merged gradients,
// then the projection-gradient rows attn_bw writes. Without TP the output
// projection and its bias + dropout + residual chain are one launch too
// (gemm_epilogues). The baselines split the projections into head layout,
// run the unfused chain of their released kernels, merge the gradients
// back, and allocate each temporary individually from the dynamic
// allocator.
//
// Serving runs the same forward inside a LayerContext::InferenceScope
// (dropout off, nothing saved); cacheless serving reads the rows as
// training does. A cached batch — a packed serving step, or the full-lane
// decode batch — replaces only SelfAttention's middle: it keeps the
// LN -> QKV -> split front half (kv_cache_store_paged and paged_attn take
// head layout) and the output-projection epilogue (AttentionCore::output),
// and attends through the paged KV pools with kern::paged_attn.
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

/// Whether the policy's attention reads Q, K and V in place from the
/// projection rows and writes their gradients straight back (LightSeq2's
/// kern::attn_fw/attn_bw); the baselines split into head layout and merge
/// back around their chain.
bool attention_reads_rows(const Policy& policy);

/// Whether the policy runs its bias/activation/dropout(/residual) chains as
/// epilogues of the GEMMs that produce their inputs (LightSeq2): FFN fc1
/// with its activation chain and fc2's dx GEMM with that chain's backward at
/// every TP degree; fc2 and the attention output projection with their
/// residual chains at TP = 1, where no all-reduce sits between GEMM and
/// chain. The baselines launch GEMM and chain apart, as their released
/// kernels do.
bool gemm_epilogues(const Policy& policy);

/// A sublayer's exit, shared by AttentionCore::output and the FFN's fc2:
/// y = residual + Dropout(x · Wᵀ + b), W row-parallel under TP (every rank
/// a full-size partial, summed by the all-reduce `allreduce_tag` before the
/// bias chain). Without TP, gemm_epilogues runs the chain as the GEMM's
/// epilogue, in place over y. `mask` (u8) receives the dropout mask when
/// `with_mask`; serving's unfused chain has no dropout stage.
struct SublayerOut {
  Tensor y, mask;
};
SublayerOut residual_projection(LayerContext& ctx, const Tensor& x, const Tensor& w,
                                const Tensor& b, const Tensor& residual, float p,
                                bool with_mask, const std::string& tag,
                                const std::string& allreduce_tag);

/// Shared core: scores -> masked softmax -> dropout -> context -> merge ->
/// output projection -> bias+dropout+residual. Owns W_out/b_out. Under
/// LightSeq2 everything before the output projection is one kern::attn_fw
/// launch; the baselines launch the chain.
class AttentionCore {
 public:
  AttentionCore(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// q/k/v: [B, N, Lq|Lk, D] operands, head layout or projection rows (rows
  /// only under LightSeq2); residual: [B, Lq, H]. Returns y [B, Lq, H].
  Tensor forward(LayerContext& ctx, const kern::AttnOperand& q, const kern::AttnOperand& k,
                 const kern::AttnOperand& v, const Tensor& residual, const Tensor* key_lens);

  /// Epilogue of forward: output projection of the head-merged context
  /// `merged` [B, Lq, H], then bias + dropout + residual — one launch under
  /// gemm_epilogues without TP; `out_mask` receives the dropout mask. A
  /// cached batch feeds it kern::paged_attn's output directly.
  Tensor output(LayerContext& ctx, const Tensor& merged, const Tensor& residual,
                Tensor* out_mask = nullptr);

  /// What backward returns. Under LightSeq2, `rows`: the gradient
  /// [B, Lq, C] of the projection rows forward read, which kern::attn_bw
  /// writes in place, dQ in its first N·D columns and, unless the caller
  /// accumulates them, dK and dV in the next two blocks (C = 3·N·D, self
  /// attention's QKV projection). Backward allocates it in its Fig. 8 plan,
  /// after the output-dropout and head-merged gradients. The baselines'
  /// chain returns head-layout dq, dk and dv for the caller to merge.
  struct CoreGrads {
    Tensor rows;
    Tensor dq, dk, dv;
  };
  /// The residual's gradient is dy itself, which the caller adds into its
  /// input gradient. `dbias` [C], optional and LightSeq2 only, receives the
  /// rows' bias gradient in attn_bw's launch. With `dk_acc` and `dv_acc`
  /// (cross attention's encoder-side gradients) the key and value gradients
  /// are ADDED into them: inside kern::attn_bw under LightSeq2, by two add
  /// launches after the chain otherwise.
  CoreGrads backward(LayerContext& ctx, const Tensor& dy, const Tensor& dbias = {},
                     const kern::AttnOperand& dk_acc = {},
                     const kern::AttnOperand& dv_acc = {});

  void release();

  const AttentionConfig& config() const { return cfg_; }

 private:
  AttentionConfig cfg_;
  ParamRegistry* params_;
  TpParam w_out_;
  ParamRef b_out_;

  struct Saved {
    kern::AttnInputs attn;   // q/k/v operands, masks, dropout stream
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

  /// Front half of forward: LayerNorm and the QKV projection of x [B, L, H]
  /// into qkv [B, L, 3H]. q/k/v are its three column blocks with their
  /// biases (LightSeq2's attention reads them in place) or, with `split`,
  /// the head-layout [B, N, L, D] tensors the baselines' chain and the paged
  /// branch take. Training also returns the LayerNorm outputs backward
  /// needs, and a split keeps qkv to the end of forward; serving frees
  /// them here.
  struct Qkv {
    kern::AttnOperand q, k, v;
    Tensor ln, mean, rstd, qkv;
  };
  Qkv project_qkv(LayerContext& ctx, const Tensor& x, bool split);

  struct Saved {
    Tensor x, ln, mean, rstd;
  };
  std::optional<Saved> saved_;
};

class CrossAttention {
 public:
  CrossAttention(ParamRegistry& params, const std::string& prefix, AttentionConfig cfg);

  /// k/v: [B, N, Ls, D] operands precomputed by the caller (rows only
  /// under LightSeq2), masked by src_lens.
  Tensor forward(LayerContext& ctx, const Tensor& x, const kern::AttnOperand& k,
                 const kern::AttnOperand& v, const Tensor* src_lens);
  /// Returns dx; ACCUMULATES key/value grads into dk/dv, operands laid out
  /// as k/v (head layout for the baselines); their `dbias`, if any, folds
  /// the K/V projection's bias gradient under LightSeq2.
  Tensor backward(LayerContext& ctx, const Tensor& dy, const kern::AttnOperand& dk,
                  const kern::AttnOperand& dv);
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
