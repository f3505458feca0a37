#include "layers/linear.h"

namespace ls2::layers {

namespace {

void launch(LayerContext& ctx, const gemm::GemmLaunch& g) { ctx.device().launch(g.desc, g.body); }

// y = x @ W^T; k > 1 charges one rank's shard of `split` (DESIGN.md §7).
gemm::GemmLaunch fw_gemm(const Tensor& x, const Tensor& w, const Tensor& y,
                         const std::string& tag, int64_t k, TpSplit split) {
  const Shape xf = x.shape().flatten_2d();
  const int64_t m = xf[0], in = xf[1];
  LS2_CHECK_EQ(w.shape().rank(), 2);
  const int64_t out = w.shape()[0];
  LS2_CHECK_EQ(w.shape()[1], in) << tag;
  LS2_CHECK_EQ(y.numel(), m * out) << tag;
  if (k <= 1) {
    return gemm::gemm_launch(/*trans_a=*/false, /*trans_b=*/true, m, out, in, 1.0f, x, w,
                             0.0f, y, tag + ".fw");
  }
  const bool col = split == TpSplit::kColumn;
  LS2_CHECK((col ? out : in) % k == 0) << tag << ": " << (col ? out : in) << " % " << k;
  const gemm::GemmCharge charge{m, col ? out / k : out, col ? in : in / k, 1};
  return gemm::gemm_launch(false, /*trans_b=*/true, m, out, in, 1.0f, x, w, 0.0f, y,
                           tag + ".fw", &charge);
}

// dx = dy @ W; k > 1 charges one rank's shard of `split`.
gemm::GemmLaunch dx_gemm(const Tensor& dy, const Tensor& w, const Tensor& dx,
                         const std::string& tag, int64_t k, TpSplit split) {
  const int64_t out = w.shape()[0], in = w.shape()[1];
  const int64_t m = dx.numel() / in;
  LS2_CHECK_EQ(dx.numel(), m * in) << tag;
  LS2_CHECK_EQ(dy.numel(), m * out) << tag;
  if (k <= 1) {
    return gemm::gemm_launch(false, false, m, in, out, 1.0f, dy, w, 0.0f, dx,
                             tag + ".bw_dx");
  }
  // kColumn dx: partials over the sharded out dim, summed by the in-order
  // TP ring — bitwise the full GEMM's ascending-k accumulation.
  // kRow dx: the rank's own input slice, fully local.
  const bool col = split == TpSplit::kColumn;
  const gemm::GemmCharge charge{m, col ? in : in / k, col ? out / k : out, 1};
  return gemm::gemm_launch(false, false, m, in, out, 1.0f, dy, w, 0.0f, dx, tag + ".bw_dx",
                           &charge);
}

}  // namespace

void linear_fw(LayerContext& ctx, const Tensor& x, const Tensor& w, const Tensor& y,
               const std::string& tag) {
  launch(ctx, fw_gemm(x, w, y, tag, 1, TpSplit::kColumn));
}

void linear_bw(LayerContext& ctx, const Tensor& dy, const Tensor& x, const Tensor& w,
               const Tensor& dx, const Tensor& dw, const std::string& tag) {
  const Shape xf = x.shape().flatten_2d();
  const int64_t m = xf[0], in = xf[1];
  const int64_t out = w.shape()[0];
  LS2_CHECK_EQ(dy.numel(), m * out) << tag;
  if (dx.defined()) launch(ctx, dx_gemm(dy, w, dx, tag, 1, TpSplit::kColumn));
  // Accumulate so shared weights (e.g. tied embeddings) sum contributions.
  gemm::device_gemm(ctx.device(), /*trans_a=*/true, /*trans_b=*/false, out, in, m, 1.0f, dy,
                    x, 1.0f, dw, tag + ".bw_dw");
}

gemm::GemmLaunch tp_linear_fw_gemm(LayerContext& ctx, const Tensor& x, const Tensor& w,
                                   const Tensor& y, const std::string& tag, TpSplit split) {
  return fw_gemm(x, w, y, tag, ctx.tp_size(), split);
}

gemm::GemmLaunch tp_linear_bw_dx_gemm(LayerContext& ctx, const Tensor& dy, const Tensor& w,
                                      const Tensor& dx, const std::string& tag,
                                      TpSplit split) {
  return dx_gemm(dy, w, dx, tag, ctx.tp_size(), split);
}

void tp_linear_fw(LayerContext& ctx, const Tensor& x, const Tensor& w, const Tensor& y,
                  const std::string& tag, TpSplit split) {
  launch(ctx, tp_linear_fw_gemm(ctx, x, w, y, tag, split));
}

void tp_linear_bw(LayerContext& ctx, const Tensor& dy, const Tensor& x, const Tensor& w,
                  const Tensor& dx, const Tensor& dw, const std::string& tag,
                  TpSplit split) {
  const int64_t k = ctx.tp_size();
  if (k <= 1) {
    linear_bw(ctx, dy, x, w, dx, dw, tag);
    return;
  }
  const Shape xf = x.shape().flatten_2d();
  const int64_t m = xf[0], in = xf[1];
  const int64_t out = w.shape()[0];
  LS2_CHECK_EQ(dy.numel(), m * out) << tag;
  const bool col = split == TpSplit::kColumn;
  double ar_done = -1.0;
  if (dx.defined()) {
    launch(ctx, dx_gemm(dy, w, dx, tag, k, split));
    if (col) {
      ar_done = ctx.tp_group->all_reduce_begin(
          ctx.device(), static_cast<int64_t>(dx.bytes()), tag + ".bw_dx.allreduce");
    }
  }
  const gemm::GemmCharge wcharge{col ? out / k : out, col ? in : in / k, m, 1};
  gemm::device_gemm(ctx.device(), /*trans_a=*/true, false, out, in, m, 1.0f, dy, x, 1.0f,
                    dw, tag + ".bw_dw", &wcharge);
  if (ar_done >= 0) {
    ctx.tp_group->wait(ctx.device(), ar_done, tag + ".bw_dx.allreduce");
  }
}

}  // namespace ls2::layers
