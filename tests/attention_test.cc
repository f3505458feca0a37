// The fused attention core (kernels/attention.h) against the unfused chain
// it replaces, built from the chain's own kernels: scores GEMM,
// attn_softmax_fw, dropout_fw, context GEMM and merge_heads_fw forward;
// merge_heads_bw, the dS and dV GEMMs, dropout_bw, softmax_bw, the dQ and dK
// GEMMs (and the adds of accumulated key/value gradients) backward.
// attn_fw and attn_bw must be bitwise equal to it in FP32 and FP16 over
// causal masks, key lengths of 1 and of the full row, Lq != Lk cross
// shapes, dropout at microbatch 1 and dropout-free serving. Each direction
// is one static launch charged like the GEMMs it replaces. Operands read in
// place from projection rows, biases added on load and bias gradients
// folded, must be bitwise the head split and merge around the head-layout
// kernels.
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
    gemm(false, true, Lq, Lk, D, in.scale, in.q.t, Lq * D, in.k.t, Lk * D, scores, Lq * Lk, B * N);
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
    gemm(false, false, Lq, D, Lk, 1.0f, ch.probs_d, Lq * Lk, in.v.t, Lk * D, ctx_h, Lq * D,
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
    gemm(false, true, Lq, Lk, D, 1.0f, dctx, Lq * D, in.v.t, Lk * D, ds, Lq * Lk, B * N);
    Tensor gv = c.accumulate_kv ? Tensor::empty(dv.shape(), dt) : dv;
    gemm(true, false, Lk, D, Lq, 1.0f, ch.probs_d, Lq * Lk, dctx, Lq * D, gv, Lk * D, B * N);
    dropout_bw(kc, Impl::kLS2, ds, ch.mask, ds, in.dropout);
    attn_softmax_bw(kc, Impl::kLS2, ds, ch.probs, ds);
    gemm(false, false, Lq, D, Lk, in.scale, ds, Lq * Lk, in.k.t, Lk * D, dq, Lq * D, B * N);
    Tensor gk = c.accumulate_kv ? Tensor::empty(dk.shape(), dt) : dk;
    gemm(true, false, Lk, D, Lq, in.scale, ds, Lq * Lk, in.q.t, Lq * D, gk, Lk * D, B * N);
    if (c.accumulate_kv) {
      baseline::add(kc, gk, dk, dk);
      baseline::add(kc, gv, dv, dv);
    }
  }

  Tensor copy(const Tensor& t) { return Tensor::from_vector(t.to_vector(), t.shape(), t.dtype()); }

  // The column block [col, col + N·D) of rows [B, L, C], copied exactly into
  // head layout [B, N, L, D].
  static Tensor heads_of(const Tensor& rows, int64_t col, int64_t N, int64_t D) {
    const int64_t B = rows.shape()[0], L = rows.shape()[1], C = rows.shape()[2];
    const std::vector<float> x = rows.to_vector();
    std::vector<float> h(static_cast<size_t>(B * N * L * D));
    for (int64_t b = 0; b < B; ++b)
      for (int64_t n = 0; n < N; ++n)
        for (int64_t l = 0; l < L; ++l)
          for (int64_t d = 0; d < D; ++d)
            h[static_cast<size_t>(((b * N + n) * L + l) * D + d)] =
                x[static_cast<size_t>((b * L + l) * C + col + n * D + d)];
    return Tensor::from_vector(h, {B, N, L, D}, rows.dtype());
  }

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
      Tensor dq_ref = Tensor::empty(in.q.t.shape(), dt), dk_ref = copy(dk0), dv_ref = copy(dv0);
      chain_bw(c, in, ch, dmerged, dq_ref, dk_ref, dv_ref);
      Tensor dq = Tensor::empty(in.q.t.shape(), dt), dk = copy(dk0), dv = copy(dv0);
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
  Tensor dq = Tensor::empty(in.q.t.shape(), DType::kF16);
  Tensor dk = Tensor::zeros(in.k.t.shape(), DType::kF16);
  Tensor dv = Tensor::zeros(in.k.t.shape(), DType::kF16);
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

// LightSeq2's layers hand the kernels the projection GEMMs' rows. Over every
// case, self shapes read Q, K and V as the column blocks of one
// [B, L, 3H] QKV rows tensor and write dQ, dK and dV into one dQKV; cross
// shapes read Q rows [B, Lq, H] and K/V at columns 2H and 3H of a
// [B, Lk, 4H] rows tensor (decoder layer 1's block of a two-layer
// layer-batched projection), accumulating into nonzero gradient rows. Every
// projection bias is added on load and every bias gradient folded from
// nonzero values. Merged, stats, the gradient rows and the dbias are bitwise
// the chain bias_split_transpose_fw -> head-layout attn_fw / attn_bw ->
// split_transpose_bw + bias_grad.
TEST_F(AttentionTest, RowsOperandsAreBitwiseTheSplitChain) {
  for (DType dt : {DType::kF32, DType::kF16}) {
    for (const Case& c : cases()) {
      const std::string what = c.name + (dt == DType::kF16 ? " (FP16)" : " (FP32)");
      const int64_t B = c.B, N = c.N, D = c.D, H = N * D;
      const bool self = c.Lq == c.Lk && !c.accumulate_kv;
      const AttnInputs base = inputs(c, dt, /*training=*/true);
      AttnInputs heads = base, rows = base;
      // Forward operands.
      const Tensor xq = randn({B, c.Lq, self ? 3 * H : H}, 11, dt);
      const Tensor bq = randn({self ? 3 * H : H}, 12, dt, 0.5f);
      const Tensor xkv = self ? xq : randn({B, c.Lk, 4 * H}, 13, dt);
      const Tensor bkv = self ? bq : randn({4 * H}, 14, dt, 0.5f);
      const int64_t kcol = self ? H : 2 * H;  // V follows K
      rows.q = AttnOperand::rows(xq, 0, N, D, bq.slice(0, H));
      rows.k = AttnOperand::rows(xkv, kcol, N, D, bkv.slice(kcol, kcol + H));
      rows.v = AttnOperand::rows(xkv, kcol + H, N, D, bkv.slice(kcol + H, kcol + 2 * H));
      heads.q = Tensor::empty({B, N, c.Lq, D}, dt);
      heads.k = Tensor::empty({B, N, c.Lk, D}, dt);
      heads.v = Tensor::empty({B, N, c.Lk, D}, dt);
      if (self) {
        bias_split_transpose_fw(kc, Impl::kLS2, xq, bq, {heads.q.t, heads.k.t, heads.v.t});
      } else {
        bias_split_transpose_fw(kc, Impl::kLS2, xq, bq, {heads.q.t});
        bias_split_transpose_fw(kc, Impl::kLS2, xkv, bkv,
                                {Tensor::empty(heads.k.t.shape(), dt),
                                 Tensor::empty(heads.k.t.shape(), dt), heads.k.t, heads.v.t});
      }
      Tensor merged = Tensor::empty({B, c.Lq, H}, dt), merged_ref = copy(merged);
      Tensor stats = Tensor::empty({B, N, c.Lq}, DType::kF32), stats_ref = copy(stats);
      attn_fw(kc, heads, merged_ref, stats_ref);
      attn_fw(kc, rows, merged, stats);
      ASSERT_EQ(merged.to_vector(), merged_ref.to_vector()) << what;
      ASSERT_EQ(stats.to_vector(), stats_ref.to_vector()) << what;

      // Backward: the gradient rows and their dbias start nonzero.
      const Tensor dmerged = randn({B, c.Lq, H}, 4, dt, 0.5f);
      const Tensor dq0 = randn(xq.shape(), 15, dt, 0.1f), dbq0 = randn(bq.shape(), 16, dt);
      const Tensor dkv0 = self ? dq0 : randn(xkv.shape(), 17, dt, 0.1f);
      const Tensor dbkv0 = self ? dbq0 : randn(bkv.shape(), 18, dt);
      Tensor dq = copy(dq0), dbq = copy(dbq0);
      Tensor dkv = self ? dq : copy(dkv0), dbkv = self ? dbq : copy(dbkv0);
      attn_bw(kc, rows, dmerged, merged, stats,
              AttnOperand::rows(dq, 0, N, D, {}, dbq.slice(0, H)),
              AttnOperand::rows(dkv, kcol, N, D, {}, dbkv.slice(kcol, kcol + H)),
              AttnOperand::rows(dkv, kcol + H, N, D, {}, dbkv.slice(kcol + H, kcol + 2 * H)),
              c.accumulate_kv);

      Tensor dq_h = Tensor::empty(heads.q.t.shape(), dt);
      Tensor dk_h = heads_of(dkv0, kcol, N, D), dv_h = heads_of(dkv0, kcol + H, N, D);
      attn_bw(kc, heads, dmerged, merged_ref, stats_ref, dq_h, dk_h, dv_h, c.accumulate_kv);
      Tensor dq_ref = Tensor::empty(xq.shape(), dt), dbq_ref = copy(dbq0);
      if (self) {
        split_transpose_bw(kc, Impl::kLS2, {dq_h, dk_h, dv_h}, dq_ref);
        bias_grad(kc, dq_ref, dbq_ref);
        EXPECT_EQ(dq.to_vector(), dq_ref.to_vector()) << what << ": dQKV rows";
        EXPECT_EQ(dbq.to_vector(), dbq_ref.to_vector()) << what << ": dQKV bias";
        continue;
      }
      split_transpose_bw(kc, Impl::kLS2, {dq_h}, dq_ref);
      bias_grad(kc, dq_ref, dbq_ref);
      EXPECT_EQ(dq.to_vector(), dq_ref.to_vector()) << what << ": dQ rows";
      EXPECT_EQ(dbq.to_vector(), dbq_ref.to_vector()) << what << ": dQ bias";
      Tensor dkv_ref = Tensor::empty(xkv.shape(), dt), dbkv_ref = copy(dbkv0);
      split_transpose_bw(kc, Impl::kLS2,
                         {heads_of(dkv0, 0, N, D), heads_of(dkv0, H, N, D), dk_h, dv_h},
                         dkv_ref);
      bias_grad(kc, dkv_ref, dbkv_ref);
      EXPECT_EQ(dkv.to_vector(), dkv_ref.to_vector()) << what << ": dK/dV rows";
      // Only the K/V blocks' columns fold; the other layer's stay put.
      std::vector<float> expect = dbkv_ref.to_vector();
      const std::vector<float> start = dbkv0.to_vector();
      std::copy(start.begin(), start.begin() + 2 * H, expect.begin());
      EXPECT_EQ(dbkv.to_vector(), expect) << what << ": dK/dV bias";
    }
  }
}

// What rows add to the charges, at shards = 2: attn_fw and attn_bw read the
// biases they add on load; attn_bw's folds write their dbias, add one flop
// per folded element and run the launch at the lowest 128-row column-tile
// occupancy over its folds, where blocks that continue one another (Q, K
// and V of one QKV projection) tile as one.
TEST_F(AttentionTest, RowsChargeBiasBytesAndFolds) {
  const int64_t B = 2, N = 4, L = 6, Lk = 10, D = 8, H = N * D;
  const int64_t e = 2;  // FP16
  const DType dt = DType::kF16;
  const double threads = dev.profile().resident_threads;
  auto fold_eff = [&](int64_t cols, int64_t rows) {
    return reduction_efficiency(0.85, cols, rows, 128, threads);
  };
  auto time_us = [&](double flops, int64_t bytes, double util, double mem_eff) {
    simgpu::KernelDesc d;
    d.bytes_read = bytes;
    d.flops = flops;
    d.mem_efficiency = mem_eff;
    d.compute_efficiency = util;
    d.tensor_core = true;
    return dev.kernel_time_us(d);
  };
  const int64_t st = B * N * L * 4;

  // Self: one [B, L, 3H] QKV and one dQKV, one fold over its 3H columns.
  {
    const Case c{"self", B, N, L, L, D, false, {}, 0.1f, 0, false};
    AttnInputs in = inputs(c, dt, /*training=*/true);
    in.shards = 2;
    const Tensor x = randn({B, L, 3 * H}, 11, dt), bias = randn({3 * H}, 12, dt);
    Tensor dqkv = Tensor::empty(x.shape(), dt), db = Tensor::zeros({3 * H}, dt);
    std::vector<AttnOperand> grads;
    for (int64_t g = 0; g < 3; ++g) {
      const AttnOperand op =
          AttnOperand::rows(x, g * H, N, D, bias.slice(g * H, (g + 1) * H));
      (g == 0 ? in.q : g == 1 ? in.k : in.v) = op;
      grads.push_back(AttnOperand::rows(dqkv, g * H, N, D, {}, db.slice(g * H, (g + 1) * H)));
    }
    Tensor merged = Tensor::empty({B, L, H}, dt);
    Tensor stats = Tensor::empty({B, N, L}, DType::kF32);
    dev.reset();
    attn_fw(kc, in, merged, stats);
    attn_bw(kc, in, merged, merged, stats, grads[0], grads[1], grads[2]);
    const int64_t blh = B * L * H * e, bias_b = 3 * H * e;
    const double pairs_d = static_cast<double>(B * N * L * L * D);
    const double util = std::min(gemm::gemm_utilization(L, L, D, B * N / 2),
                                 gemm::gemm_utilization(L, D, L, B * N / 2));
    const simgpu::KernelStats fw = dev.per_kernel().at("ls2.attn_fw");
    const simgpu::KernelStats bw = dev.per_kernel().at("ls2.attn_bw");
    EXPECT_EQ(fw.bytes, 3 * blh + bias_b + blh + st) << "Q, K, V and their biases";
    EXPECT_DOUBLE_EQ(fw.exec_us, time_us(4 * pairs_d, fw.bytes, util, 0.85));
    EXPECT_EQ(bw.bytes, (blh + 3 * blh + bias_b + blh + st) + (3 * blh + bias_b))
        << "the dbias written";
    EXPECT_EQ(bw.flops, 10 * pairs_d + static_cast<double>(B * L * 3 * H));
    // One 3H-wide tile, not three H-wide ones, and it binds.
    const double eff = fold_eff(3 * H, B * L);
    ASSERT_NE(eff, fold_eff(H, B * L));
    ASSERT_LT(eff, 0.85);
    EXPECT_DOUBLE_EQ(bw.exec_us, time_us(10 * pairs_d + static_cast<double>(B * L * 3 * H),
                                         bw.bytes, util, eff));
  }

  // Cross: dQ rows fold H columns over B·L rows, the K/V blocks of a wider
  // rows tensor 2H columns over B·Lk rows; the launch takes the lower.
  {
    const Case c{"cross", B, N, L, Lk, D, false, {10, 3}, 0.1f, 0, true};
    AttnInputs in = inputs(c, dt, /*training=*/true);
    in.shards = 2;
    const Tensor xq = randn({B, L, H}, 11, dt), bq = randn({H}, 12, dt);
    const Tensor xkv = randn({B, Lk, 4 * H}, 13, dt), bkv = randn({4 * H}, 14, dt);
    in.q = AttnOperand::rows(xq, 0, N, D, bq);
    in.k = AttnOperand::rows(xkv, 2 * H, N, D, bkv.slice(2 * H, 3 * H));
    in.v = AttnOperand::rows(xkv, 3 * H, N, D, bkv.slice(3 * H, 4 * H));
    Tensor dq = Tensor::empty(xq.shape(), dt), dbq = Tensor::zeros({H}, dt);
    Tensor dkv = Tensor::zeros(xkv.shape(), dt), dbkv = Tensor::zeros({4 * H}, dt);
    Tensor merged = Tensor::empty({B, L, H}, dt);
    Tensor stats = Tensor::empty({B, N, L}, DType::kF32);
    dev.reset();
    attn_bw(kc, in, merged, merged, stats, AttnOperand::rows(dq, 0, N, D, {}, dbq),
            AttnOperand::rows(dkv, 2 * H, N, D, {}, dbkv.slice(2 * H, 3 * H)),
            AttnOperand::rows(dkv, 3 * H, N, D, {}, dbkv.slice(3 * H, 4 * H)),
            /*accumulate_kv=*/true);
    const int64_t blh_q = B * L * H * e, blh_k = B * Lk * H * e;
    const double pairs_d = static_cast<double>(B * N * L * Lk * D);
    const double util = std::min({gemm::gemm_utilization(L, Lk, D, B * N / 2),
                                  gemm::gemm_utilization(L, D, Lk, B * N / 2),
                                  gemm::gemm_utilization(Lk, D, L, B * N / 2)});
    const simgpu::KernelStats bw = dev.per_kernel().at("ls2.attn_bw");
    EXPECT_EQ(bw.bytes, (3 * blh_q + st + 2 * blh_k + 3 * H * e + 2 * blh_k) +
                            (blh_q + 2 * blh_k + 3 * H * e));
    const double folded = static_cast<double>(B * L * H + B * Lk * 2 * H);
    EXPECT_EQ(bw.flops, 10 * pairs_d + folded);
    const double eff = std::min(fold_eff(H, B * L), fold_eff(2 * H, B * Lk));
    ASSERT_LT(eff, 0.85);
    EXPECT_DOUBLE_EQ(bw.exec_us, time_us(10 * pairs_d + folded, bw.bytes, util, eff));
  }
}

TEST_F(AttentionTest, RejectsMismatchedOperands) {
  const Case& c = cases()[0];
  AttnInputs in = inputs(c, DType::kF32, /*training=*/true);
  Tensor merged = Tensor::empty({c.B, c.Lq, c.N * c.D}, DType::kF32);
  Tensor stats = Tensor::empty({c.B, c.N, c.Lq}, DType::kF32);
  Tensor dq = Tensor::empty(in.q.t.shape(), DType::kF32);
  Tensor dk = Tensor::empty(in.k.t.shape(), DType::kF32);
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
