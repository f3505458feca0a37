#include "gemm/gemm_device.h"

#include "gemm/gemm.h"

namespace ls2::gemm {

namespace {

simgpu::KernelDesc make_desc(const std::string& tag, int64_t m, int64_t n, int64_t k,
                             int64_t batch, bool fp16, bool read_c) {
  const int64_t elem = fp16 ? 2 : 4;
  simgpu::KernelDesc d;
  d.name = tag;
  d.bytes_read = batch * elem * (m * k + k * n + (read_c ? m * n : 0));
  d.bytes_written = batch * elem * m * n;
  d.flops = 2.0 * static_cast<double>(batch) * static_cast<double>(m) *
            static_cast<double>(n) * static_cast<double>(k);
  d.compute_efficiency = gemm_utilization(m, n, k, batch);
  d.mem_efficiency = 0.85;
  d.tensor_core = fp16;
  return d;
}

void check_operands(const Tensor& a, const Tensor& b, const Tensor& c) {
  LS2_CHECK(a.dtype() == b.dtype() && b.dtype() == c.dtype()) << "gemm dtype mismatch";
  LS2_CHECK(a.dtype() == DType::kF32 || a.dtype() == DType::kF16)
      << "gemm requires f32 or f16";
}

}  // namespace

GemmLaunch gemm_launch(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                       float alpha, const Tensor& a, const Tensor& b, float beta,
                       const Tensor& c, const std::string& tag, const GemmCharge* charge) {
  check_operands(a, b, c);
  const bool fp16 = a.dtype() == DType::kF16;
  GemmLaunch g;
  g.desc = charge ? make_desc(tag, charge->m, charge->n, charge->k, charge->batch, fp16,
                              beta != 0.0f)
                  : make_desc(tag, m, n, k, 1, fp16, beta != 0.0f);
  g.c = c;
  if (charge) {
    g.c_share = static_cast<double>(charge->m * charge->n * charge->batch) /
                static_cast<double>(m * n);
  }
  g.body = [=] {
    if (fp16) {
      hgemm(trans_a, trans_b, m, n, k, alpha, a.data<Half>(), b.data<Half>(), beta,
            c.data<Half>());
    } else {
      sgemm(trans_a, trans_b, m, n, k, alpha, a.data<float>(), b.data<float>(), beta,
            c.data<float>());
    }
  };
  return g;
}

void device_gemm(simgpu::Device& device, bool trans_a, bool trans_b, int64_t m, int64_t n,
                 int64_t k, float alpha, const Tensor& a, const Tensor& b, float beta,
                 const Tensor& c, const std::string& tag, const GemmCharge* charge) {
  const GemmLaunch g = gemm_launch(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, tag, charge);
  device.launch(g.desc, g.body);
}

void device_gemm_batched(simgpu::Device& device, bool trans_a, bool trans_b, int64_t m,
                         int64_t n, int64_t k, float alpha, const Tensor& a, int64_t stride_a,
                         const Tensor& b, int64_t stride_b, float beta, const Tensor& c,
                         int64_t stride_c, int64_t batch, const std::string& tag,
                         const GemmCharge* charge) {
  check_operands(a, b, c);
  const bool fp16 = a.dtype() == DType::kF16;
  const simgpu::KernelDesc desc =
      charge ? make_desc(tag, charge->m, charge->n, charge->k, charge->batch, fp16,
                         beta != 0.0f)
             : make_desc(tag, m, n, k, batch, fp16, beta != 0.0f);
  device.launch(desc, [=, &a, &b, &c] {
    if (fp16) {
      hgemm_strided_batched(trans_a, trans_b, m, n, k, alpha, a.data<Half>(), stride_a,
                            b.data<Half>(), stride_b, beta, c.data<Half>(), stride_c, batch);
    } else {
      sgemm_strided_batched(trans_a, trans_b, m, n, k, alpha, a.data<float>(), stride_a,
                            b.data<float>(), stride_b, beta, c.data<float>(), stride_c,
                            batch);
    }
  });
}

}  // namespace ls2::gemm
