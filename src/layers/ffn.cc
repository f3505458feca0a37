#include "layers/ffn.h"

#include "kernels/elementwise.h"
#include "kernels/layernorm.h"
#include "layers/attention.h"  // gemm_epilogues
#include "layers/linear.h"

namespace ls2::layers {

FeedForward::FeedForward(ParamRegistry& params, const std::string& prefix, FfnConfig cfg)
    : cfg_(cfg),
      params_(&params),
      ln_gamma_(params.declare(prefix + ".ln.gamma", Shape{cfg.hidden}, Init::kOne)),
      ln_beta_(params.declare(prefix + ".ln.beta", Shape{cfg.hidden}, Init::kZero)) {
  LS2_CHECK(cfg.tp.size <= 1 || cfg.ffn_dim % cfg.tp.size == 0)
      << "ffn_dim " << cfg.ffn_dim << " not divisible by tp " << cfg.tp.size;
  // Registry order matches the unsharded layer declaration-for-declaration,
  // which is what keeps sharded initialisation streams aligned (DESIGN §7).
  w1_ = TpParam::declare(params, cfg.tp, prefix + ".fc1.weight",
                         Shape{cfg.ffn_dim, cfg.hidden}, Init::kXavier, /*dim=*/0);
  b1_ = TpParam::declare(params, cfg.tp, prefix + ".fc1.bias", Shape{cfg.ffn_dim},
                         Init::kZero, /*dim=*/0);
  w2_ = TpParam::declare(params, cfg.tp, prefix + ".fc2.weight",
                         Shape{cfg.hidden, cfg.ffn_dim}, Init::kXavier, /*dim=*/1);
  b2_ = params.declare(prefix + ".fc2.bias", Shape{cfg.hidden}, Init::kZero);
}

Tensor FeedForward::forward(LayerContext& ctx, const Tensor& x) {
  const int64_t B = x.shape()[0], L = x.shape()[1], H = x.shape()[2];
  const int64_t F = cfg_.ffn_dim;
  const DType dt = x.dtype();
  const Policy& pol = ctx.policy;
  const bool training = ctx.training();
  // Serving keeps no dropout mask past its kernel, and its unfused chains
  // have no dropout stage to need one.
  const bool masks = training || pol.fused_elementwise;

  Tensor ln = ctx.alloc({B, L, H}, dt);
  Tensor mean = ctx.alloc({B * L}, DType::kF32);
  Tensor rstd = ctx.alloc({B * L}, DType::kF32);
  kern::layernorm_fw(ctx.kern, pol.layernorm, x, params_->value(ln_gamma_),
                     params_->value(ln_beta_), ln, mean, rstd);

  // fc1 is column-parallel over ffn_dim: h1/a live sharded on a real TP
  // rank, and the bias+activation+dropout chain runs at shard width. Under
  // gemm_epilogues the chain is fc1's epilogue at every TP degree; the GEMM
  // still stores h1, which the activation backward reads.
  const bool epilogues = gemm_epilogues(pol);
  const auto act_fw = cfg_.activation == Activation::kRelu ? &kern::fused::bias_relu_dropout_fw
                                                           : &kern::fused::bias_gelu_dropout_fw;
  Tensor h1 = ctx.alloc_shard({B, L, F}, dt);
  const gemm::GemmLaunch fc1 =
      tp_linear_fw_gemm(ctx, ln, w1_.value(ctx), h1, "ffn.fc1", TpSplit::kColumn);
  if (!epilogues) ctx.device().launch(fc1.desc, fc1.body);

  Tensor a = ctx.alloc_shard({B, L, F}, dt);
  Tensor act_mask = masks ? ctx.alloc_shard({B, L, F}, DType::kU8) : Tensor();
  if (epilogues) {
    act_fw(ctx.kern, h1, b1_.value(ctx), a, act_mask, ctx.dropout(cfg_.act_dropout),
           ctx.kern.next_dropout_stream(), &fc1);
  } else {
    TpChargeScale tp_scale(ctx);
    if (pol.fused_elementwise) {
      act_fw(ctx.kern, h1, b1_.value(ctx), a, act_mask, ctx.dropout(cfg_.act_dropout),
             ctx.kern.next_dropout_stream(), nullptr);
    } else {
      // Framework decomposition; h1 is overwritten with h1+b1 so the same
      // buffer feeds the activation backward (as PyTorch's autograd saves it).
      // Serving's activation lands in `a` directly.
      kern::baseline::add_bias(ctx.kern, h1, b1_.value(ctx), h1);
      Tensor t = training ? ctx.alloc_shard({B, L, F}, dt) : a;
      if (cfg_.activation == Activation::kRelu) {
        kern::baseline::relu_fw(ctx.kern, h1, t);
      } else {
        kern::baseline::gelu_fw(ctx.kern, h1, t);
      }
      if (training) {
        kern::dropout_fw(ctx.kern, pol.elementwise, t, a, act_mask, cfg_.act_dropout,
                         ctx.kern.next_dropout_stream());
      }
    }
  }
  if (!training) act_mask = Tensor();

  // fc2 is row-parallel: every rank holds a full-size partial of h2 and the
  // TP all-reduce sums them (in rank order — bitwise the full GEMM).
  const SublayerOut o = residual_projection(ctx, a, w2_.value(ctx), params_->value(b2_), x,
                                            cfg_.out_dropout, masks, "ffn.fc2",
                                            "tp.ffn.allreduce");
  if (training) saved_ = Saved{x, ln, mean, rstd, h1, a, act_mask, o.mask};
  return o.y;
}

Tensor FeedForward::backward(LayerContext& ctx, const Tensor& dy) {
  LS2_CHECK(saved_.has_value()) << "backward without forward";
  Saved& s = *saved_;
  const int64_t B = s.x.shape()[0], L = s.x.shape()[1], H = s.x.shape()[2];
  const int64_t F = cfg_.ffn_dim;
  const DType dt = dy.dtype();
  const Policy& pol = ctx.policy;

  // Through output bias+dropout(+residual grad handled at the LN step). The
  // fused kernels reduce the bias grads in the same launch when the policy
  // folds them.
  const bool fold = pol.fold_bias_grad && pol.fused_elementwise;
  Tensor dh2 = ctx.alloc({B, L, H}, dt);
  const Tensor db2 = params_->grad(b2_);
  if (pol.fused_elementwise) {
    kern::fused::bias_dropout_residual_bw(ctx.kern, dy, s.out_mask, dh2, cfg_.out_dropout,
                                          fold ? db2 : Tensor());
  } else {
    kern::dropout_bw(ctx.kern, pol.elementwise, dy, s.out_mask, dh2, cfg_.out_dropout);
  }
  if (!fold) kern::bias_grad(ctx.kern, dh2, db2);

  // fc2 (row-parallel) backward is fully local: da is the rank's ffn_dim
  // slice, dW2 its column shard. Under gemm_epilogues the dx GEMM writes
  // dh1 and the activation chain's backward runs over it in place as the
  // GEMM's epilogue, at every TP degree; otherwise the GEMM writes da for a
  // launch of its own (shard width under TP).
  const auto act_bw = cfg_.activation == Activation::kRelu ? &kern::fused::bias_relu_dropout_bw
                                                           : &kern::fused::bias_gelu_dropout_bw;
  Tensor da, dh1;  // held to the end of backward, as the baselines' allocator sees them
  if (gemm_epilogues(pol)) {
    dh1 = ctx.alloc_shard({B, L, F}, dt);
    {
      auto db1 = b1_.grad(ctx);
      const gemm::GemmLaunch fc2_dx =
          tp_linear_bw_dx_gemm(ctx, dh2, w2_.value(ctx), dh1, "ffn.fc2", TpSplit::kRow);
      act_bw(ctx.kern, dh1, s.act_mask, s.h1, b1_.value(ctx), dh1, cfg_.act_dropout,
             fold ? db1.tensor() : Tensor(), &fc2_dx);
      if (!fold) {
        TpChargeScale tp_scale(ctx);
        kern::bias_grad(ctx.kern, dh1, db1.tensor());
      }
    }
    auto dw2 = w2_.grad(ctx);
    tp_linear_bw(ctx, dh2, s.a, w2_.value(ctx), /*dx=*/Tensor(), dw2.tensor(), "ffn.fc2",
                 TpSplit::kRow);
  } else {
    da = ctx.alloc_shard({B, L, F}, dt);
    {
      auto dw2 = w2_.grad(ctx);
      tp_linear_bw(ctx, dh2, s.a, w2_.value(ctx), da, dw2.tensor(), "ffn.fc2",
                   TpSplit::kRow);
    }
    dh1 = ctx.alloc_shard({B, L, F}, dt);
    TpChargeScale tp_scale(ctx);
    auto db1 = b1_.grad(ctx);
    if (pol.fused_elementwise) {
      act_bw(ctx.kern, da, s.act_mask, s.h1, b1_.value(ctx), dh1, cfg_.act_dropout,
             fold ? db1.tensor() : Tensor(), nullptr);
    } else {
      Tensor t = ctx.alloc_shard({B, L, F}, dt);
      kern::dropout_bw(ctx.kern, pol.elementwise, da, s.act_mask, t, cfg_.act_dropout);
      if (cfg_.activation == Activation::kRelu) {
        kern::baseline::relu_bw(ctx.kern, t, s.h1, dh1);  // s.h1 holds h1+b1 here
      } else {
        kern::baseline::gelu_bw(ctx.kern, t, s.h1, dh1);
      }
    }
    if (!fold) kern::bias_grad(ctx.kern, dh1, db1.tensor());
  }

  // fc1 (column-parallel) backward: dln partials all-reduce over the TP
  // group; tp_linear_bw overlaps the transfer with the dW1 GEMM.
  Tensor dln = ctx.alloc({B, L, H}, dt);
  {
    auto dw1 = w1_.grad(ctx);
    tp_linear_bw(ctx, dh1, s.ln, w1_.value(ctx), dln, dw1.tensor(), "ffn.fc1",
                 TpSplit::kColumn);
  }

  Tensor dx = ctx.alloc({B, L, H}, dt);
  kern::layernorm_bw(ctx.kern, pol.layernorm, dln, s.x, params_->value(ln_gamma_), s.mean,
                     s.rstd, dx, params_->grad(ln_gamma_), params_->grad(ln_beta_),
                     /*residual_grad=*/&dy, pol.fold_bias_grad);
  release();
  return dx;
}

void FeedForward::release() { saved_.reset(); }

}  // namespace ls2::layers
