// BERT-style encoder-only classifier for GLUE/MRPC (Table II row 3):
// embedding, pre-LN encoder stack with GELU FFNs, [CLS] pooling, two-way
// classification head.
#pragma once

#include <memory>

#include "dist/tensor_parallel.h"
#include "layers/block_stack.h"
#include "layers/embedding_layer.h"
#include "layers/encoder_layer.h"
#include "models/cls_head.h"

namespace ls2::models {

struct BertConfig {
  int64_t vocab = 30522;
  int64_t hidden = 768;
  int64_t heads = 12;
  int64_t ffn_dim = 3072;
  int64_t layers = 12;
  int64_t max_len = 512;
  int64_t num_classes = 2;
  float dropout = 0.1f;
  int32_t pad_id = 0;
  /// Tensor parallelism (DESIGN §7): shards blocks + the vocab table; the
  /// tiny classifier head stays replicated. Requires kLightSeq2.
  dist::TpConfig tp;

  static BertConfig base();   ///< BERT-Base: 12 layers, 768 hidden
  static BertConfig large();  ///< BERT-Large: 24 layers, 1024 hidden
  int64_t parameter_count() const;
};

struct ClsBatch {
  Tensor ids;     ///< [B, L] i32, [CLS] at position 0
  Tensor lens;    ///< [B] i32
  Tensor labels;  ///< [B] i32
};

class Bert {
 public:
  Bert(BertConfig cfg, layers::System system, DType dtype, uint64_t seed,
       BufferAllocator* param_alloc = nullptr);

  ClsResult forward(layers::LayerContext& ctx, const ClsBatch& batch);
  void backward(layers::LayerContext& ctx);
  void release();

  layers::ParamRegistry& params() { return params_; }
  const BertConfig& config() const { return cfg_; }

  /// Partition across `pp` pipeline stages (DESIGN.md §9): embedding with
  /// the first blocks on stage 0, final LayerNorm + classifier head with
  /// the last blocks on stage pp-1.
  const layers::PpPlan& pp_configure(int pp);

  /// TP epilogue (no-op when TP is off): peer-shard update after the rank-0
  /// trainer step — see core::train_step.
  void tp_finish_step(const optim::Optimizer& trainer) {
    if (tp_) tp_->finish_step(trainer);
  }
  layers::ParamRegistry* tp_peers() { return tp_ ? &tp_->peers() : nullptr; }

 private:
  BertConfig cfg_;
  layers::ParamRegistry params_;
  std::unique_ptr<dist::TpRuntime> tp_;
  std::unique_ptr<layers::EmbeddingLayer> embed_;
  std::unique_ptr<layers::BlockStack<layers::TransformerEncoderLayer>> blocks_;
  std::unique_ptr<layers::LayerNorm> ln_f_;
  std::unique_ptr<ClsHead> head_;
  layers::ParamRange embed_range_;  ///< for the gradient bucketer (src/dist/bucket.h)
  layers::PpPlan pp_plan_;
};

}  // namespace ls2::models
