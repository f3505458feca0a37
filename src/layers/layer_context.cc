#include "layers/layer_context.h"

namespace ls2::layers {

const char* system_name(System s) {
  switch (s) {
    case System::kFairseq: return "Fairseq";
    case System::kFairseqApex: return "Fairseq+Apex";
    case System::kDeepSpeed: return "DeepSpeed";
    case System::kLightSeq2: return "LightSeq2";
  }
  return "?";
}

Policy policy_for(System system) {
  Policy p;
  p.system = system;
  switch (system) {
    case System::kFairseq:
      p.elementwise = kern::Impl::kTorch;
      p.layernorm = kern::Impl::kTorch;
      p.softmax = kern::Impl::kTorch;
      p.embedding = kern::Impl::kTorch;
      p.criterion = kern::Impl::kTorch;
      p.transform = kern::Impl::kTorch;
      p.fused_elementwise = false;
      p.layer_batched_cross_attn = false;
      p.fold_bias_grad = false;
      break;
    case System::kFairseqApex:
      // Apex contributes fused LayerNorm/Softmax kernels; everything else
      // stays native PyTorch.
      p.elementwise = kern::Impl::kTorch;
      p.layernorm = kern::Impl::kLS2;
      p.softmax = kern::Impl::kLS2;
      p.embedding = kern::Impl::kTorch;
      p.criterion = kern::Impl::kTorch;
      p.transform = kern::Impl::kTorch;
      p.fused_elementwise = false;
      p.layer_batched_cross_attn = false;
      p.fold_bias_grad = false;
      break;
    case System::kDeepSpeed:
      p.elementwise = kern::Impl::kLS2;  // fused encoder element-wise chains
      p.layernorm = kern::Impl::kDeepSpeed;
      p.softmax = kern::Impl::kDeepSpeed;
      p.embedding = kern::Impl::kTorch;   // not optimised by DeepSpeed
      p.criterion = kern::Impl::kTorch;   // not optimised by DeepSpeed
      p.transform = kern::Impl::kLS2;
      p.fused_elementwise = true;
      p.layer_batched_cross_attn = false;
      p.fold_bias_grad = false;  // its bias gradients are separate reductions
      p.seq_multiple = 16;
      p.supports_decoder = false;
      break;
    case System::kLightSeq2:
      break;  // defaults
  }
  return p;
}

int64_t pad_length(const Policy& policy, int64_t len) {
  const int64_t m = policy.seq_multiple;
  return m <= 1 ? len : (len + m - 1) / m * m;
}

}  // namespace ls2::layers
