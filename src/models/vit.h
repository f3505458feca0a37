// Vision Transformer (ViT) for image classification (Table II row 2).
//
// Input arrives as pre-extracted patch vectors [B, P, C·ps²] (the host data
// pipeline performs resize + im2col, as real loaders do on CPU workers);
// the model projects patches to the hidden size, prepends a learned [CLS]
// token, adds learned positional embeddings, applies dropout, then a GELU
// pre-LN encoder stack and a classification head on [CLS].
#pragma once

#include <memory>
#include <optional>

#include "dist/tensor_parallel.h"
#include "layers/block_stack.h"
#include "layers/encoder_layer.h"
#include "models/cls_head.h"

namespace ls2::models {

struct VitConfig {
  int64_t image = 224;
  int64_t patch = 32;
  int64_t channels = 3;
  int64_t hidden = 768;
  int64_t heads = 12;
  int64_t ffn_dim = 3072;
  int64_t layers = 12;
  int64_t num_classes = 10;
  float dropout = 0.1f;
  /// Tensor parallelism (DESIGN §7): shards the encoder blocks; patch
  /// projection, embeddings and the classifier head stay replicated.
  dist::TpConfig tp;

  static VitConfig b32();  ///< ViT-B/32
  static VitConfig l32();  ///< ViT-L/32
  int64_t patches() const { return (image / patch) * (image / patch); }
  int64_t patch_dim() const { return channels * patch * patch; }
  int64_t seq_len() const { return patches() + 1; }  // +[CLS]
  int64_t parameter_count() const;
};

struct ImageBatch {
  Tensor patches;  ///< [B, P, C·ps²] float
  Tensor labels;   ///< [B] i32
};

class Vit {
 public:
  Vit(VitConfig cfg, layers::System system, DType dtype, uint64_t seed,
      BufferAllocator* param_alloc = nullptr);

  ClsResult forward(layers::LayerContext& ctx, const ImageBatch& batch);
  void backward(layers::LayerContext& ctx);
  void release();

  layers::ParamRegistry& params() { return params_; }
  const VitConfig& config() const { return cfg_; }

  /// Partition across `pp` pipeline stages (DESIGN.md §9): patch/CLS/pos
  /// embedding with the first blocks on stage 0, final LayerNorm + head
  /// with the last blocks on stage pp-1.
  const layers::PpPlan& pp_configure(int pp);

  /// TP epilogue (no-op when TP is off): peer-shard update after the rank-0
  /// trainer step — see core::train_step.
  void tp_finish_step(const optim::Optimizer& trainer) {
    if (tp_) tp_->finish_step(trainer);
  }
  layers::ParamRegistry* tp_peers() { return tp_ ? &tp_->peers() : nullptr; }

 private:
  VitConfig cfg_;
  layers::ParamRegistry params_;
  std::unique_ptr<dist::TpRuntime> tp_;
  layers::ParamRef patch_w_, patch_b_, cls_token_, pos_embed_;
  std::unique_ptr<layers::BlockStack<layers::TransformerEncoderLayer>> blocks_;
  std::unique_ptr<layers::LayerNorm> ln_f_;
  std::unique_ptr<ClsHead> head_;
  layers::ParamRange embed_range_;  ///< for the gradient bucketer (src/dist/bucket.h)
  layers::PpPlan pp_plan_;

  struct Saved {
    Tensor patches_in, proj;  // [B,P,pd] input and [B,P,H] projection
    Tensor embed_mask;        // u8 dropout mask over [B, P+1, H]
    int64_t B = 0;
  };
  std::optional<Saved> saved_;
};

}  // namespace ls2::models
