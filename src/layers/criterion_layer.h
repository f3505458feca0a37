// Criterion layer: output projection (optionally tied to the token
// embedding) followed by label-smoothed cross entropy (§IV-A.3).
#pragma once

#include <optional>
#include <string>

#include "layers/layer_context.h"
#include "layers/params.h"
#include "layers/tp.h"

namespace ls2::layers {

struct CriterionConfig {
  int64_t vocab = 32000;
  int64_t hidden = 512;
  float label_smoothing = 0.1f;
  int32_t pad_id = 0;  ///< targets equal to this contribute nothing
  /// Vocab-shards the (possibly tied) output projection: the logits GEMM is
  /// column-parallel — each rank computes a [rows, vocab/tp] slice — and a
  /// TP all-gather (exact concatenation) assembles the full logits every
  /// rank needs for the softmax/CE reduction. Backward's dx partial sum is
  /// the criterion's TP all-reduce. Note the gathered logits keep the
  /// full-vocab activation per rank; a fused vocab-parallel CE that never
  /// materialises them (Megatron's) is future work.
  TpDecl tp;
};

struct CriterionResult {
  float loss_sum = 0;    ///< total label-smoothed loss over valid tokens
  int64_t tokens = 0;    ///< number of valid (non-pad) tokens
  float loss_per_token() const { return tokens > 0 ? loss_sum / tokens : 0.0f; }
};

/// Whether a forward under `ctx` writes the criterion's gradient from its
/// loss launch, over the logits in place (LightSeq2 while training), so
/// backward launches no criterion kernel and allocates no dlogits. The
/// baselines compute the gradient in backward.
bool criterion_grad_in_forward(const LayerContext& ctx);

class CriterionLayer {
 public:
  /// `tied_table`: pass the embedding's table handle to share weights; an
  /// invalid handle declares a fresh projection matrix.
  CriterionLayer(ParamRegistry& params, const std::string& prefix, CriterionConfig cfg,
                 TpParam tied_table = {});

  /// x: [B, L, H] decoder output; targets: [B, L] i32. Starts with logits().
  /// Under criterion_grad_in_forward the loss launch also writes the
  /// gradient, scaled by ctx.loss_scale over ctx.pp_denominator (or the
  /// valid-token count), so both must be set before the forward.
  CriterionResult forward(LayerContext& ctx, const Tensor& x, const Tensor& targets);

  /// Gradient of mean-per-token loss w.r.t. x. Throws under LightSeq2 if
  /// the forward wrote no gradient (it ran outside training).
  Tensor backward(LayerContext& ctx);
  void release();

  /// The output projection alone: logits [B*L, vocab] from x [B, L, H],
  /// nothing saved. Serving ends here; sharing the (possibly tied) table
  /// with training is what makes a trained checkpoint servable as-is
  /// (§V-B).
  Tensor logits(LayerContext& ctx, const Tensor& x);

 private:
  CriterionConfig cfg_;
  ParamRegistry* params_;
  TpParam proj_;

  struct Saved {
    Tensor x, targets, logits, stats;
    int64_t valid_tokens = 0;
    bool logits_hold_grad = false;  ///< the forward overwrote them with dlogits
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::layers
