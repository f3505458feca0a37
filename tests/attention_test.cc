// The fused attention core (kernels/attention.h) against the unfused chain
// it replaces, built from the chain's own kernels: scores GEMM,
// attn_softmax_fw, dropout_fw, context GEMM and merge_heads_fw forward;
// merge_heads_bw, the dS and dV GEMMs, dropout_bw, softmax_bw, the dQ and dK
// GEMMs (and the adds of accumulated key/value gradients) backward.
// attn_fw and attn_bw must be bitwise equal to it in FP32 and FP16 over
// causal masks, key lengths of 1 and of the full row, Lq != Lk cross
// shapes, dropout at microbatch 1 and dropout-free serving. Each direction
// is one static launch charged like the GEMMs it replaces.
#include "kernels/attention.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "gemm/gemm.h"
#include "gemm/gemm_device.h"
#include "kernels/elementwise.h"
#include "kernels/softmax.h"
#include "kernels/transform.h"
#include "simgpu/profile.h"

namespace ls2::kern {
namespace {

struct Case {
  std::string name;
  int64_t B, N, Lq, Lk, D;
  bool causal;
  std::vector<float> key_lens;  // empty: no key mask
  float dropout;                // 0 in training: dropout_fw at p = 0
  uint64_t microbatch;
  bool accumulate_kv;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"causal self-attention, padded keys", 2, 2, 7, 7, 8, true, {7, 4}, 0.1f, 1, false},
      {"cross, key lengths 1 and the full row", 2, 3, 5, 9, 4, false, {1, 9}, 0.1f, 1, true},
      {"unmasked, dropout 0", 1, 2, 6, 6, 8, false, {}, 0.0f, 0, false},
      {"cross, one query row", 3, 2, 1, 6, 8, false, {6, 2, 5}, 0.1f, 1, true},
  };
  return kCases;
}

class AttentionTest : public ::testing::Test {
 protected:
  AttentionTest() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 42) {}

  Tensor randn(Shape shape, uint64_t stream, DType dt, float sd = 1.0f) {
    Tensor t = Tensor::empty(std::move(shape), dt);
    kc.rng.fill_normal(t, 5000 + stream, 0.0f, sd);
    return t;
  }

  AttnInputs inputs(const Case& c, DType dt, bool training) {
    AttnInputs in;
    in.q = randn({c.B, c.N, c.Lq, c.D}, 1, dt);
    in.k = randn({c.B, c.N, c.Lk, c.D}, 2, dt);
    in.v = randn({c.B, c.N, c.Lk, c.D}, 3, dt);
    in.causal = c.causal;
    if (!c.key_lens.empty()) in.key_lens = Tensor::from_vector(c.key_lens, {c.B}, DType::kI32);
    in.scale = 1.0f / std::sqrt(static_cast<float>(c.D));
    if (training) {
      in.dropout = c.dropout;
      in.stream = 77;
      in.microbatch = c.microbatch;
    }
    return in;
  }

  // The chain's forward state, kept for its backward.
  struct Chain {
    Tensor probs, probs_d, mask, merged;
  };

  void gemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha, const Tensor& a,
            int64_t sa, const Tensor& b, int64_t sb, const Tensor& c, int64_t sc,
            int64_t batch) {
    gemm::device_gemm_batched(dev, ta, tb, m, n, k, alpha, a, sa, b, sb, 0.0f, c, sc, batch);
  }

  Chain chain_fw(const Case& c, const AttnInputs& in, bool training) {
    const DType dt = in.q.dtype();
    const int64_t B = c.B, N = c.N, Lq = c.Lq, Lk = c.Lk, D = c.D;
    Chain ch;
    Tensor scores = Tensor::empty({B, N, Lq, Lk}, dt);
    gemm(false, true, Lq, Lk, D, in.scale, in.q, Lq * D, in.k, Lk * D, scores, Lq * Lk, B * N);
    ch.probs = Tensor::empty({B, N, Lq, Lk}, dt);
    attn_softmax_fw(kc, Impl::kLS2, scores, ch.probs, c.causal,
                    in.key_lens.defined() ? &in.key_lens : nullptr);
    ch.probs_d = ch.probs;
    if (training) {
      ch.probs_d = Tensor::empty({B, N, Lq, Lk}, dt);
      ch.mask = Tensor::empty({B, N, Lq, Lk}, DType::kU8);
      kc.microbatch = in.microbatch;
      dropout_fw(kc, Impl::kLS2, ch.probs, ch.probs_d, ch.mask, in.dropout, in.stream);
      kc.microbatch = 0;
    }
    Tensor ctx_h = Tensor::empty({B, N, Lq, D}, dt);
    gemm(false, false, Lq, D, Lk, 1.0f, ch.probs_d, Lq * Lk, in.v, Lk * D, ctx_h, Lq * D,
         B * N);
    ch.merged = Tensor::empty({B, Lq, N * D}, dt);
    merge_heads_fw(kc, Impl::kLS2, ctx_h, ch.merged);
    return ch;
  }

  void chain_bw(const Case& c, const AttnInputs& in, const Chain& ch, const Tensor& dmerged,
                const Tensor& dq, const Tensor& dk, const Tensor& dv) {
    const DType dt = in.q.dtype();
    const int64_t B = c.B, N = c.N, Lq = c.Lq, Lk = c.Lk, D = c.D;
    Tensor dctx = Tensor::empty({B, N, Lq, D}, dt);
    merge_heads_bw(kc, Impl::kLS2, dmerged, dctx);
    Tensor ds = Tensor::empty({B, N, Lq, Lk}, dt);
    gemm(false, true, Lq, Lk, D, 1.0f, dctx, Lq * D, in.v, Lk * D, ds, Lq * Lk, B * N);
    Tensor gv = c.accumulate_kv ? Tensor::empty(dv.shape(), dt) : dv;
    gemm(true, false, Lk, D, Lq, 1.0f, ch.probs_d, Lq * Lk, dctx, Lq * D, gv, Lk * D, B * N);
    dropout_bw(kc, Impl::kLS2, ds, ch.mask, ds, in.dropout);
    attn_softmax_bw(kc, Impl::kLS2, ds, ch.probs, ds);
    gemm(false, false, Lq, D, Lk, in.scale, ds, Lq * Lk, in.k, Lk * D, dq, Lq * D, B * N);
    Tensor gk = c.accumulate_kv ? Tensor::empty(dk.shape(), dt) : dk;
    gemm(true, false, Lk, D, Lq, in.scale, ds, Lq * Lk, in.q, Lq * D, gk, Lk * D, B * N);
    if (c.accumulate_kv) {
      baseline::add(kc, gk, dk, dk);
      baseline::add(kc, gv, dv, dv);
    }
  }

  Tensor copy(const Tensor& t) { return Tensor::from_vector(t.to_vector(), t.shape(), t.dtype()); }

  int64_t launches(const std::string& name) const {
    const auto& k = dev.per_kernel();
    return k.count(name) ? k.at(name).launches : 0;
  }

  simgpu::Device dev;
  KernelContext kc;
};

TEST_F(AttentionTest, ForwardAndBackwardAreBitwiseTheChain) {
  for (DType dt : {DType::kF32, DType::kF16}) {
    for (const Case& c : cases()) {
      const std::string what = c.name + (dt == DType::kF16 ? " (FP16)" : " (FP32)");
      const AttnInputs in = inputs(c, dt, /*training=*/true);
      const Chain ch = chain_fw(c, in, /*training=*/true);

      Tensor merged = Tensor::empty({c.B, c.Lq, c.N * c.D}, dt);
      Tensor stats = Tensor::empty({c.B, c.N, c.Lq}, DType::kF32);
      attn_fw(kc, in, merged, stats);
      ASSERT_EQ(merged.to_vector(), ch.merged.to_vector()) << what;

      Tensor dmerged = randn({c.B, c.Lq, c.N * c.D}, 4, dt, 0.5f);
      const Tensor dk0 = randn({c.B, c.N, c.Lk, c.D}, 5, dt, 0.1f);
      const Tensor dv0 = randn({c.B, c.N, c.Lk, c.D}, 6, dt, 0.1f);
      Tensor dq_ref = Tensor::empty(in.q.shape(), dt), dk_ref = copy(dk0), dv_ref = copy(dv0);
      chain_bw(c, in, ch, dmerged, dq_ref, dk_ref, dv_ref);
      Tensor dq = Tensor::empty(in.q.shape(), dt), dk = copy(dk0), dv = copy(dv0);
      attn_bw(kc, in, dmerged, merged, stats, dq, dk, dv, c.accumulate_kv);
      EXPECT_EQ(dq.to_vector(), dq_ref.to_vector()) << what;
      EXPECT_EQ(dk.to_vector(), dk_ref.to_vector()) << what;
      EXPECT_EQ(dv.to_vector(), dv_ref.to_vector()) << what;

      // The dropout draws at microbatch 1 are the chain's, not microbatch 0's.
      if (c.microbatch != 0) {
        AttnInputs mb0 = in;
        mb0.microbatch = 0;
        Tensor other = Tensor::empty(merged.shape(), dt);
        attn_fw(kc, mb0, other, Tensor());
        EXPECT_NE(other.to_vector(), merged.to_vector()) << what;
      }
    }
  }
}

// Serving: no dropout stage, no statistics, no stream — bitwise the chain
// without its dropout.
TEST_F(AttentionTest, ServingForwardIsTheDropoutFreeChain) {
  for (DType dt : {DType::kF32, DType::kF16}) {
    for (const Case& c : cases()) {
      const AttnInputs in = inputs(c, dt, /*training=*/false);
      const Chain ch = chain_fw(c, in, /*training=*/false);
      Tensor merged = Tensor::empty({c.B, c.Lq, c.N * c.D}, dt);
      attn_fw(kc, in, merged, Tensor());
      EXPECT_EQ(merged.to_vector(), ch.merged.to_vector()) << c.name;
    }
  }
}

// One static launch each way, charged like the batched GEMMs it replaces:
// memory efficiency 0.85, the lowest utilisation among their shapes at
// B·N/shards heads, 4 (forward) and 10 (backward) flops per head, query,
// key and head dimension whatever the masks, and only the O(B·L·H)
// operands, the statistics and accumulated destinations as bytes.
TEST_F(AttentionTest, OneStaticLaunchEachWayChargedLikeTheGemms) {
  const int64_t B = 2, N = 4, Lq = 6, Lk = 10, D = 8, H = N * D;
  const int64_t e = 2;  // FP16
  const Case c{"charge", B, N, Lq, Lk, D, false, {10, 3}, 0.1f, 0, true};
  AttnInputs in = inputs(c, DType::kF16, /*training=*/true);
  in.shards = 2;
  Tensor merged = Tensor::empty({B, Lq, H}, DType::kF16);
  Tensor stats = Tensor::empty({B, N, Lq}, DType::kF32);
  Tensor dq = Tensor::empty(in.q.shape(), DType::kF16);
  Tensor dk = Tensor::zeros(in.k.shape(), DType::kF16);
  Tensor dv = Tensor::zeros(in.k.shape(), DType::kF16);
  dev.reset();
  attn_fw(kc, in, merged, stats);
  attn_bw(kc, in, merged, merged, stats, dq, dk, dv, /*accumulate_kv=*/true);
  EXPECT_EQ(dev.stats().launches, 2);
  ASSERT_EQ(launches("ls2.attn_fw"), 1);
  ASSERT_EQ(launches("ls2.attn_bw"), 1);

  const double pairs_d = static_cast<double>(B * N * Lq * Lk * D);
  const int64_t heads = B * N / 2;
  auto expected = [&](double flops, int64_t bytes, double util) {
    simgpu::KernelDesc d;
    d.bytes_read = bytes;
    d.flops = flops;
    d.mem_efficiency = 0.85;
    d.compute_efficiency = util;
    d.tensor_core = true;
    return dev.kernel_time_us(d);
  };
  const int64_t blh_q = B * Lq * H * e, blh_k = B * Lk * H * e, st = B * N * Lq * 4;
  const double fw_util = std::min(gemm::gemm_utilization(Lq, Lk, D, heads),
                                  gemm::gemm_utilization(Lq, D, Lk, heads));
  const double bw_util = std::min(fw_util, gemm::gemm_utilization(Lk, D, Lq, heads));
  const simgpu::KernelStats fw = dev.per_kernel().at("ls2.attn_fw");
  const simgpu::KernelStats bw = dev.per_kernel().at("ls2.attn_bw");
  EXPECT_EQ(fw.flops, 4 * pairs_d);
  EXPECT_EQ(fw.bytes, blh_q + 2 * blh_k + blh_q + st);
  EXPECT_DOUBLE_EQ(fw.exec_us, expected(4 * pairs_d, fw.bytes, fw_util));
  EXPECT_EQ(bw.flops, 10 * pairs_d);
  EXPECT_EQ(bw.bytes, (3 * blh_q + 2 * blh_k + st + 2 * blh_k) + (blh_q + 2 * blh_k));
  EXPECT_DOUBLE_EQ(bw.exec_us, expected(10 * pairs_d, bw.bytes, bw_util));

  // The masks move no charge: the full tile grid is charged either way.
  in.key_lens = Tensor::from_vector({1, 1}, {B}, DType::kI32);
  attn_fw(kc, in, merged, stats);
  attn_bw(kc, in, merged, merged, stats, dq, dk, dv, /*accumulate_kv=*/true);
  EXPECT_DOUBLE_EQ(dev.per_kernel().at("ls2.attn_fw").exec_us, 2 * fw.exec_us);
  EXPECT_DOUBLE_EQ(dev.per_kernel().at("ls2.attn_bw").exec_us, 2 * bw.exec_us);
}

TEST_F(AttentionTest, RejectsMismatchedOperands) {
  const Case& c = cases()[0];
  AttnInputs in = inputs(c, DType::kF32, /*training=*/true);
  Tensor merged = Tensor::empty({c.B, c.Lq, c.N * c.D}, DType::kF32);
  Tensor stats = Tensor::empty({c.B, c.N, c.Lq}, DType::kF32);
  Tensor dq = Tensor::empty(in.q.shape(), DType::kF32);
  Tensor dk = Tensor::empty(in.k.shape(), DType::kF32);
  EXPECT_THROW(attn_bw(kc, in, merged, merged, Tensor(), dq, dk, dk), Error)
      << "the backward needs the forward's statistics";
  AttnInputs cross = in;
  cross.k = randn({c.B, c.N, c.Lk + 1, c.D}, 7, DType::kF32);
  cross.v = cross.k;
  EXPECT_THROW(attn_fw(kc, cross, merged, stats), Error) << "causal needs Lq == Lk";
  in.dropout = 1.0f;
  EXPECT_THROW(attn_fw(kc, in, merged, stats), Error);
}

}  // namespace
}  // namespace ls2::kern
