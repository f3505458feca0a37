// Token + position embedding layer (§IV-A.2):
//   y = Dropout(sqrt(H) * E[token] + P[position]).
// The token table is a trainable parameter (often tied with the output
// projection); the positional table is sinusoidal and fixed. Serving runs
// forward inside a LayerContext::InferenceScope: no dropout, no mask,
// nothing saved.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "layers/layer_context.h"
#include "layers/params.h"
#include "layers/tp.h"

namespace ls2::layers {

struct EmbeddingConfig {
  int64_t vocab = 32000;
  int64_t hidden = 512;
  int64_t max_len = 1024;
  float dropout = 0.1f;
  int32_t pad_id = 0;
  /// Vocab-shards the token table (Megatron's tied-embedding discipline:
  /// each rank owns vocab/tp rows; the lookup's partial rows sum over one
  /// forward TP all-reduce — exact, every row has a single owner — and the
  /// scatter-add backward stays local). Requires vocab % tp.size == 0 (pad
  /// the vocab, as Megatron does).
  TpDecl tp;
};

class EmbeddingLayer {
 public:
  /// `tied_table` shares another embedding's token table (e.g. source and
  /// target embeddings of a shared-vocabulary translation model).
  EmbeddingLayer(ParamRegistry& params, const std::string& prefix, EmbeddingConfig cfg,
                 TpParam tied_table = {});

  /// ids [B, L] hold positions [0, L), or [starts[b], starts[b] + L) for
  /// row b of a cached batch (i32 [B], PagedRows::q_begin: each row of a
  /// serving step at its own position). Lazily builds the sinusoidal table
  /// on first use (host init, not a device kernel).
  Tensor forward(LayerContext& ctx, const Tensor& ids, const Tensor* starts = nullptr);
  void backward(LayerContext& ctx, const Tensor& dy);
  void release();

  /// The token table parameter — shared with the output projection when
  /// embeddings are tied.
  const TpParam& table() const { return table_; }
  const EmbeddingConfig& config() const { return cfg_; }

 private:
  /// Build pos_ for the table's dtype if not already present.
  void ensure_positions(DType dtype);

  EmbeddingConfig cfg_;
  ParamRegistry* params_;
  TpParam table_;
  Tensor pos_;  // sinusoidal, fixed

  struct Saved {
    Tensor ids, mask;
  };
  std::optional<Saved> saved_;
  /// Per-microbatch scatter inputs held back under pipeline parallelism —
  /// flushed in microbatch order on the step's last backward (see
  /// backward() for why the table's addition chain requires this).
  struct Deferred {
    Tensor dy, ids, mask;
  };
  std::vector<Deferred> deferred_;
};

}  // namespace ls2::layers
