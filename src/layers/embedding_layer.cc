#include "layers/embedding_layer.h"

#include <cmath>

#include "kernels/embedding.h"

namespace ls2::layers {

EmbeddingLayer::EmbeddingLayer(ParamRegistry& params, const std::string& prefix,
                               EmbeddingConfig cfg, TpParam tied_table)
    : cfg_(cfg), params_(&params) {
  if (tied_table.valid()) {
    table_ = tied_table;
    LS2_CHECK(table_.full_shape() == (Shape{cfg.vocab, cfg.hidden}))
        << "tied embedding shape mismatch";
  } else {
    LS2_CHECK(cfg.tp.size <= 1 || cfg.vocab % cfg.tp.size == 0)
        << "vocab " << cfg.vocab << " not divisible by tp " << cfg.tp.size
        << " — pad the vocab (Megatron discipline)";
    table_ = TpParam::declare(params, cfg.tp, prefix + ".token_embedding",
                              Shape{cfg.vocab, cfg.hidden}, Init::kNormal, /*dim=*/0);
  }
}

void EmbeddingLayer::ensure_positions(DType dtype) {
  if (pos_.defined() && pos_.dtype() == dtype) return;
  Tensor pos_f32 = Tensor::empty({cfg_.max_len, cfg_.hidden}, DType::kF32);
  kern::init_sinusoidal_positions(pos_f32);
  pos_ = Tensor::empty({cfg_.max_len, cfg_.hidden}, dtype);
  pos_.copy_from(pos_f32.to_vector());
}

Tensor EmbeddingLayer::forward(LayerContext& ctx, const Tensor& ids) {
  LS2_CHECK(ids.dtype() == DType::kI32);
  const int64_t B = ids.shape()[0], L = ids.shape()[-1];
  LS2_CHECK_LE(L, cfg_.max_len);
  // Under TP the lookup runs against the rank's vocab shard producing a
  // full-size partial (zero rows for foreign ids) that one TP all-reduce
  // completes — EXACT, since every row has a single owner. The emulation
  // assembles the full table and looks up directly: the same bits.
  const Tensor table = table_.value(ctx);
  ensure_positions(table.dtype());
  Tensor y = ctx.alloc({B, L, cfg_.hidden}, table.dtype());
  Tensor mask = ctx.alloc({B, L, cfg_.hidden}, DType::kU8);
  const float scale = std::sqrt(static_cast<float>(cfg_.hidden));
  kern::embedding_fw(ctx.kern, ctx.policy.embedding, ids, table,
                     pos_.slice(0, L), y, mask, scale, cfg_.dropout,
                     ctx.kern.next_dropout_stream(), cfg_.pad_id);
  if (ctx.tp_size() > 1) {
    ctx.tp_group->all_reduce(ctx.device(), static_cast<int64_t>(y.bytes()),
                             "tp.embed.allreduce");
  }
  saved_ = Saved{ids, mask};
  return y;
}

Tensor EmbeddingLayer::prefill(LayerContext& ctx, const Tensor& ids, int64_t first) {
  LS2_CHECK(ctx.tp_size() == 1) << "serving paths run unsharded (TP is a training feature)";
  LS2_CHECK(ids.dtype() == DType::kI32);
  const int64_t B = ids.shape()[0], L = ids.shape()[-1];
  LS2_CHECK(first >= 0 && first + L <= cfg_.max_len)
      << "positions [" << first << ", " << first + L << ") beyond max_len " << cfg_.max_len;
  const Tensor table = table_.value(ctx);
  ensure_positions(table.dtype());
  Tensor y = ctx.alloc({B, L, cfg_.hidden}, table.dtype());
  Tensor mask = ctx.alloc({B, L, cfg_.hidden}, DType::kU8);
  const float scale = std::sqrt(static_cast<float>(cfg_.hidden));
  kern::embedding_fw(ctx.kern, ctx.policy.embedding, ids, table, pos_.slice(first, first + L),
                     y, mask, scale, /*p=*/0.0f, ctx.kern.next_dropout_stream(), cfg_.pad_id);
  return y;
}

Tensor EmbeddingLayer::decode_step(LayerContext& ctx, const Tensor& ids,
                                   const Tensor& positions) {
  LS2_CHECK(ctx.tp_size() == 1) << "serving paths run unsharded (TP is a training feature)";
  LS2_CHECK(ids.dtype() == DType::kI32);
  const int64_t S = ids.shape()[0];
  LS2_CHECK_EQ(ids.numel(), S) << "decode_step takes one token per slot";
  const Tensor table = table_.value(ctx);
  ensure_positions(table.dtype());
  Tensor y = ctx.alloc({S, 1, cfg_.hidden}, table.dtype());
  const float scale = std::sqrt(static_cast<float>(cfg_.hidden));
  kern::embedding_decode_fw(ctx.kern, ctx.policy.embedding, ids, table, pos_, positions, y,
                            scale, cfg_.pad_id);
  return y;
}

void EmbeddingLayer::backward(LayerContext& ctx, const Tensor& dy) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  const float scale = std::sqrt(static_cast<float>(cfg_.hidden));
  // Gradients were zeroed at step start; with tied embeddings the output
  // projection has already accumulated into this table's grad. Under TP the
  // scatter-add is LOCAL — each rank only owns its vocab rows — which the
  // gather->scatter grad scope reproduces slice-exactly.
  if (ctx.pp != nullptr) {
    // Microbatched execution: a tied table's grad has multiple writers (the
    // criterion's dW GEMM, and every embedding sharing it), and the
    // single-batch run orders them all-GEMM-then-scatter-by-scatter.
    // Running this scatter per microbatch would interleave the writers and
    // change the FP addition chain, so hold each microbatch's inputs back
    // and flush them in order on the step's last backward — from here, so
    // the model's grad-ready notification still follows the final write.
    deferred_.push_back({dy, saved_->ids, saved_->mask});
    if (ctx.pp_flush) {
      auto d_table = table_.grad(ctx);
      for (const Deferred& e : deferred_) {
        kern::embedding_bw(ctx.kern, ctx.policy.embedding, e.dy, e.ids, e.mask,
                           d_table.tensor(), scale, cfg_.dropout, cfg_.pad_id,
                           /*zero_first=*/false);
      }
      deferred_.clear();
    }
    release();
    return;
  }
  auto d_table = table_.grad(ctx);
  kern::embedding_bw(ctx.kern, ctx.policy.embedding, dy, saved_->ids, saved_->mask,
                     d_table.tensor(), scale, cfg_.dropout, cfg_.pad_id,
                     /*zero_first=*/false);
  release();
}

void EmbeddingLayer::release() { saved_.reset(); }

}  // namespace ls2::layers
