#include "kernels/attention.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <vector>

#include "common/parallel.h"
#include "gemm/gemm.h"
#include "kernels/elementwise.h"
#include "kernels/softmax.h"

namespace ls2::kern {

namespace {

// The attention dropout of one query row: dropout_fw's keep test and
// inverted scale at the row's counters [first, first + Lk). Without an rng
// the row has no dropout stage (serving, or p = 0, where dropout_fw keeps
// every element unchanged).
struct RowDropout {
  const Rng* rng = nullptr;
  uint64_t stream = 0;
  uint64_t first = 0;
  float p = 0.0f;

  bool keep(int64_t j) const {
    return rng->uniform(stream, first + static_cast<uint64_t>(j)) >= p;
  }
  float keep_scale() const { return 1.0f / (1.0f - p); }
};

RowDropout row_dropout(const AttnInputs& in, const Rng& rng, int64_t row, int64_t Lk,
                       int64_t numel) {
  if (in.dropout == 0.0f) return {};
  return {&rng, in.stream,
          in.microbatch * static_cast<uint64_t>(numel) + static_cast<uint64_t>(row * Lk),
          in.dropout};
}

// Keys query row i of batch row b attends: attn_softmax_fw's mask.
int64_t attended(const int32_t* lens, int64_t b, int64_t i, int64_t Lk, bool causal) {
  int64_t valid = lens ? std::min<int64_t>(lens[b], Lk) : Lk;
  if (causal) valid = std::min<int64_t>(valid, i + 1);
  return std::max<int64_t>(valid, 0);
}

// x [L, D] in T, transposed into float xt [D, L]: the layout in which one
// query row's scores stream contiguous rows (gemm_row).
template <typename T>
void transpose_to_float(const T* x, int64_t L, int64_t D, float* xt) {
  for (int64_t j = 0; j < L; ++j)
    for (int64_t d = 0; d < D; ++d) xt[d * L + j] = static_cast<float>(x[j * D + d]);
}

// s[j] = T(sum_d a[d] * xt[d][j]) for j in [0, n), xt [D, ld]: one row of a
// batched GEMM whose A row, alpha applied, is `a`. The FP32 sums run in
// ascending d and skip an exact-zero a[d], as the host GEMM (gemm/gemm.cc)
// forms them, and vectorise over j as its rows do. `acc` is n floats of
// scratch.
template <typename T>
void gemm_row(const float* a, const float* xt, int64_t D, int64_t ld, int64_t n, float* acc,
              T* s) {
  std::fill(acc, acc + n, 0.0f);
  for (int64_t d = 0; d < D; ++d) {
    const float ad = a[d];
    if (ad == 0.0f) continue;
    const float* x = xt + d * ld;
    for (int64_t j = 0; j < n; ++j) acc[j] += ad * x[j];
  }
  for (int64_t j = 0; j < n; ++j) s[j] = T(acc[j]);
}

// Scratch of the forward row routine, for rows of up to `keys` keys.
template <typename T>
struct RowScratch {
  RowScratch(int64_t keys, int64_t D)
      : a(static_cast<size_t>(D)), ctx(static_cast<size_t>(D)),
        acc(static_cast<size_t>(keys)), s(static_cast<size_t>(keys)),
        p(static_cast<size_t>(keys)) {}
  std::vector<float> a, ctx, acc;
  std::vector<T> s, p;
};

// One query row of the attention forward, the row routine of attn_fw and
// paged_attn. The row attends keys [0, len) of `kt` (keys transposed,
// [D, ld]); value(j) gives value row j. Scores of the query scaled as the
// scores GEMM applies alpha, the masked softmax row, the dropout, then the
// context sum in FP32 over the kept probabilities in ascending j, rounded
// once into out[0, D). Returns the softmax normaliser.
template <typename T, typename ValueRow>
float attn_fw_row(const T* q, float scale, const float* kt, int64_t ld, int64_t D, int64_t len,
                  ValueRow value, const RowDropout& drop, RowScratch<T>& w, T* out) {
  for (int64_t d = 0; d < D; ++d) w.a[d] = scale * static_cast<float>(q[d]);
  gemm_row(w.a.data(), kt, D, ld, len, w.acc.data(), w.s.data());
  T* p = w.p.data();
  const float inv_z = attn_softmax_row(w.s.data(), p, len, len);
  if (drop.rng) {
    const float keep_scale = drop.keep_scale();
    for (int64_t j = 0; j < len; ++j)
      p[j] = T(drop.keep(j) ? static_cast<float>(p[j]) * keep_scale : 0.0f);
  }
  float* ctx = w.ctx.data();
  std::fill(ctx, ctx + D, 0.0f);
  for (int64_t j = 0; j < len; ++j) {
    const float pj = static_cast<float>(p[j]);
    if (pj == 0.0f) continue;
    const T* vrow = value(j);
    for (int64_t d = 0; d < D; ++d) ctx[d] += pj * static_cast<float>(vrow[d]);
  }
  for (int64_t d = 0; d < D; ++d) out[d] = T(ctx[d]);
  return inv_z;
}

struct Dims {
  int64_t B, N, Lq, Lk, D;
};

void check_operand(const AttnOperand& op, const char* what) {
  LS2_CHECK(op.defined()) << "attention: no " << what;
  LS2_CHECK(!op.bias.defined() ||
            (op.bias.numel() == op.N * op.D && op.bias.dtype() == op.dtype()))
      << "attention: " << what << " bias must be [" << op.N * op.D << "] of its dtype";
  LS2_CHECK(!op.dbias.defined() ||
            (op.is_rows && op.dbias.numel() == op.N * op.D && op.dbias.dtype() == op.dtype()))
      << "attention: " << what << " dbias must be [" << op.N * op.D
      << "] of its dtype, on a rows operand";
}

Dims check_inputs(const AttnInputs& in) {
  check_operand(in.q, "q");
  check_operand(in.k, "k");
  check_operand(in.v, "v");
  const Dims d{in.q.B, in.q.N, in.q.L, in.k.L, in.q.D};
  LS2_CHECK(in.v.B == d.B && in.v.N == d.N && in.v.L == d.Lk && in.v.D == d.D)
      << "attention: k and v must agree";
  LS2_CHECK(in.k.B == d.B && in.k.N == d.N && in.k.D == d.D)
      << "attention: q [" << d.B << ", " << d.N << ", " << d.Lq << ", " << d.D
      << "] against k [" << in.k.B << ", " << in.k.N << ", " << in.k.L << ", " << in.k.D
      << "]";
  LS2_CHECK(in.q.dtype() == in.k.dtype() && in.q.dtype() == in.v.dtype());
  LS2_CHECK(in.dropout >= 0.0f && in.dropout < 1.0f) << "dropout p=" << in.dropout;
  LS2_CHECK(!in.causal || d.Lq == d.Lk) << "causal attention needs Lq == Lk";
  LS2_CHECK(in.shards >= 1);
  if (in.key_lens.defined()) {
    LS2_CHECK(in.key_lens.dtype() == DType::kI32);
    LS2_CHECK_EQ(in.key_lens.numel(), d.B);
  }
  return d;
}

// The bytes an operand's bias adds to a launch that loads it.
int64_t bias_bytes(const AttnOperand& op) {
  return op.bias.defined() ? static_cast<int64_t>(op.bias.bytes()) : 0;
}

// The GEMM cost model (gemm/gemm_device.cc) for a launch that replaces the
// batched GEMMs of `shapes` ({m, n, k} per head): compute efficiency the
// lowest utilisation among them at B·N/shards heads, memory efficiency
// 0.85, tensor cores in FP16.
simgpu::KernelDesc attn_desc(const char* name, const AttnInputs& in, const Dims& d,
                             int64_t bytes_read, int64_t bytes_written, double flops,
                             std::initializer_list<std::array<int64_t, 3>> shapes) {
  const int64_t heads = d.B * d.N / in.shards;
  simgpu::KernelDesc desc;
  desc.name = name;
  desc.bytes_read = bytes_read;
  desc.bytes_written = bytes_written;
  desc.flops = flops;
  desc.mem_efficiency = 0.85;
  desc.compute_efficiency = 1.0;
  for (const auto& s : shapes)
    desc.compute_efficiency =
        std::min(desc.compute_efficiency, gemm::gemm_utilization(s[0], s[1], s[2], heads));
  desc.tensor_core = in.q.dtype() == DType::kF16;
  return desc;
}

// Head (b, n) of `op` into out [L, D], contiguous: each row loaded with its
// bias added, T(float(x) + float(bias)), as bias_split_transpose_fw writes
// the split tensors.
template <typename T>
void load_head(const AttnOperand& op, int64_t b, int64_t n, T* out) {
  const T* x = op.t.data<T>();
  const T* bias = op.bias.defined() ? op.bias.data<T>() + n * op.D : nullptr;
  for (int64_t l = 0; l < op.L; ++l) {
    const T* row = x + op.row(b, n, l);
    T* o = out + l * op.D;
    for (int64_t d = 0; d < op.D; ++d)
      o[d] = bias ? T(static_cast<float>(row[d]) + static_cast<float>(bias[d])) : row[d];
  }
}

// One task per head: its Q, K and V rows loaded, its keys transposed once,
// then its query rows.
template <typename T>
void attn_fw_body(const AttnInputs& in, const Rng& rng, const Dims& dm, const Tensor& merged,
                  const Tensor& stats) {
  const int64_t N = dm.N, Lq = dm.Lq, Lk = dm.Lk, D = dm.D;
  const int32_t* lens = in.key_lens.defined() ? in.key_lens.data<int32_t>() : nullptr;
  T* mp = merged.data<T>();
  float* sp = stats.defined() ? stats.data<float>() : nullptr;
  const int64_t numel = dm.B * N * Lq * Lk;
  parallel_for(0, dm.B * N, [&](int64_t bn) {
    const int64_t b = bn / N, n = bn % N;
    std::vector<T> qh(static_cast<size_t>(Lq * D)), kh(static_cast<size_t>(Lk * D)),
        vh(static_cast<size_t>(Lk * D));
    load_head(in.q, b, n, qh.data());
    load_head(in.k, b, n, kh.data());
    load_head(in.v, b, n, vh.data());
    std::vector<float> kt(static_cast<size_t>(D * Lk));
    transpose_to_float(kh.data(), Lk, D, kt.data());
    RowScratch<T> w(Lk, D);
    for (int64_t i = 0; i < Lq; ++i) {
      const int64_t r = bn * Lq + i;  // the logical q row ((b*N + n)*Lq + i)
      const float inv_z = attn_fw_row(
          qh.data() + i * D, in.scale, kt.data(), Lk, D, attended(lens, b, i, Lk, in.causal),
          [&](int64_t j) { return vh.data() + j * D; }, row_dropout(in, rng, r, Lk, numel), w,
          mp + ((b * Lq + i) * N + n) * D);
      if (sp) sp[r] = inv_z;
    }
  });
}

// One task per head: its query rows run in ascending order, so each dK/dV
// element accumulates over the rows in the order the dK/dV GEMMs sum them.
// Heads write disjoint rows of dq, dk and dv.
template <typename T>
void attn_bw_body(const AttnInputs& in, const Rng& rng, const Dims& dm, const Tensor& dmerged,
                  const Tensor& stats, const AttnOperand& dq, const AttnOperand& dk,
                  const AttnOperand& dv, bool accumulate_kv) {
  const int64_t N = dm.N, Lq = dm.Lq, Lk = dm.Lk, D = dm.D;
  const T* dop = dmerged.data<T>();
  const float* inv_z = stats.data<float>();
  const int32_t* lens = in.key_lens.defined() ? in.key_lens.data<int32_t>() : nullptr;
  const int64_t numel = dm.B * N * Lq * Lk;
  const float scale = in.scale;
  const auto n_kd = static_cast<size_t>(Lk * D);
  T* dqp = dq.t.data<T>();
  T* dkp = dk.t.data<T>();
  T* dvp = dv.t.data<T>();
  parallel_for(0, dm.B * N, [&](int64_t bn) {
    const int64_t b = bn / N, n = bn % N;
    std::vector<T> qh(static_cast<size_t>(Lq * D)), kh(n_kd), vh(n_kd);
    load_head(in.q, b, n, qh.data());
    load_head(in.k, b, n, kh.data());
    load_head(in.v, b, n, vh.data());
    std::vector<float> kt(n_kd), vt(n_kd), kf(n_kd), dk_acc(n_kd, 0.0f), dv_acc(n_kd, 0.0f);
    transpose_to_float(kh.data(), Lk, D, kt.data());
    transpose_to_float(vh.data(), Lk, D, vt.data());
    for (size_t e = 0; e < n_kd; ++e) kf[e] = static_cast<float>(kh[e]);
    std::vector<float> qf(static_cast<size_t>(D)), a(static_cast<size_t>(D)),
        dq_acc(static_cast<size_t>(D)), acc(static_cast<size_t>(Lk));
    std::vector<T> s(static_cast<size_t>(Lk)), p(static_cast<size_t>(Lk)),
        ds(static_cast<size_t>(Lk));
    for (int64_t i = 0; i < Lq; ++i) {
      const int64_t r = bn * Lq + i;
      const T* qi = qh.data() + i * D;
      const T* dout = dop + ((b * Lq + i) * N + n) * D;  // merge_heads_bw's copy of dctx
      // The forward's probabilities, from recomputed scores and the saved
      // normaliser.
      const int64_t valid = attended(lens, b, i, Lk, in.causal);
      for (int64_t d = 0; d < D; ++d) {
        qf[d] = static_cast<float>(qi[d]);
        a[d] = scale * qf[d];
      }
      gemm_row(a.data(), kt.data(), D, Lk, valid, acc.data(), s.data());
      attn_softmax_row_normalise(s.data(), p.data(), valid, Lk, attn_row_max(s.data(), valid),
                                 inv_z[r]);
      // dS = dctx · V^T over the full row, as the dS GEMM computes it.
      for (int64_t d = 0; d < D; ++d) a[d] = static_cast<float>(dout[d]);
      gemm_row(a.data(), vt.data(), D, Lk, Lk, acc.data(), ds.data());
      // dV += P_d^T · dctx, with P_d the forward's dropped probabilities;
      // dS through dropout_bw.
      const RowDropout drop = row_dropout(in, rng, r, Lk, numel);
      const float keep_scale = drop.rng ? drop.keep_scale() : 1.0f;
      for (int64_t j = 0; j < Lk; ++j) {
        float pd = static_cast<float>(p[j]);
        if (drop.rng) {
          const bool keep = drop.keep(j);
          ds[j] = T(keep ? static_cast<float>(ds[j]) * keep_scale : 0.0f);
          pd = static_cast<float>(T(keep ? pd * keep_scale : 0.0f));
        }
        if (pd == 0.0f) continue;
        float* dvr = dv_acc.data() + j * D;
        for (int64_t d = 0; d < D; ++d) dvr[d] += pd * a[d];
      }
      // softmax_bw over the row's Lk columns.
      double dot = 0;
      for (int64_t j = 0; j < Lk; ++j)
        dot += static_cast<double>(static_cast<float>(ds[j])) * static_cast<float>(p[j]);
      for (int64_t j = 0; j < Lk; ++j)
        ds[j] = T(static_cast<float>(p[j]) *
                  (static_cast<float>(ds[j]) - static_cast<float>(dot)));
      // dQ = scale·dS·K ; dK += scale·dS^T·Q.
      std::fill(dq_acc.begin(), dq_acc.end(), 0.0f);
      for (int64_t j = 0; j < Lk; ++j) {
        const float av = scale * static_cast<float>(ds[j]);
        if (av == 0.0f) continue;
        const float* kr = kf.data() + j * D;
        float* dkr = dk_acc.data() + j * D;
        for (int64_t d = 0; d < D; ++d) {
          dq_acc[d] += av * kr[d];
          dkr[d] += av * qf[d];
        }
      }
      T* dqr = dqp + dq.row(b, n, i);
      for (int64_t d = 0; d < D; ++d) dqr[d] = T(dq_acc[d]);
    }
    for (int64_t j = 0; j < Lk; ++j) {
      T* dkr = dkp + dk.row(b, n, j);
      T* dvr = dvp + dv.row(b, n, j);
      for (int64_t d = 0; d < D; ++d) {
        const T gk = T(dk_acc[j * D + d]), gv = T(dv_acc[j * D + d]);
        dkr[d] = accumulate_kv ? T(static_cast<float>(gk) + static_cast<float>(dkr[d])) : gk;
        dvr[d] = accumulate_kv ? T(static_cast<float>(gv) + static_cast<float>(dvr[d])) : gv;
      }
    }
  });
}

}  // namespace

AttnOperand::AttnOperand(Tensor head_layout) : t(std::move(head_layout)) {
  if (!t.defined()) return;
  LS2_CHECK_EQ(t.shape().rank(), 4) << "a head-layout attention operand is [B, N, L, D]";
  B = t.shape()[0];
  N = t.shape()[1];
  L = t.shape()[2];
  D = t.shape()[3];
}

AttnOperand AttnOperand::rows(Tensor t, int64_t col, int64_t heads, int64_t head_dim,
                              Tensor bias, Tensor dbias) {
  LS2_CHECK_EQ(t.shape().rank(), 3) << "attention rows are [B, L, C]";
  LS2_CHECK(heads >= 1 && head_dim >= 1 && col >= 0 && col + heads * head_dim <= t.shape()[2])
      << "attention rows: " << heads << " heads of " << head_dim << " at column " << col
      << " of " << t.shape().str();
  AttnOperand op;
  op.B = t.shape()[0];
  op.L = t.shape()[1];
  op.N = heads;
  op.D = head_dim;
  op.col = col;
  op.is_rows = true;
  op.t = std::move(t);
  op.bias = std::move(bias);
  op.dbias = std::move(dbias);
  return op;
}

void attn_fw(KernelContext& kc, const AttnInputs& in, const Tensor& merged,
             const Tensor& stats) {
  const Dims d = check_inputs(in);
  LS2_CHECK(merged.dtype() == in.q.dtype());
  LS2_CHECK_EQ(merged.numel(), d.B * d.Lq * d.N * d.D);
  if (stats.defined()) {
    LS2_CHECK(stats.dtype() == DType::kF32);
    LS2_CHECK_EQ(stats.numel(), d.B * d.N * d.Lq);
  }
  const double pairs_d = static_cast<double>(d.B * d.N * d.Lq * d.Lk) * d.D;
  const simgpu::KernelDesc desc = attn_desc(
      "ls2.attn_fw", in, d,
      in.q.bytes() + in.k.bytes() + in.v.bytes() + bias_bytes(in.q) + bias_bytes(in.k) +
          bias_bytes(in.v),
      static_cast<int64_t>(merged.bytes() + (stats.defined() ? stats.bytes() : 0)),
      4.0 * pairs_d, {{d.Lq, d.Lk, d.D}, {d.Lq, d.D, d.Lk}});
  kc.dev.launch(desc, [&, in, d] {
    LS2_DISPATCH_FLOAT(in.q.dtype(), T, attn_fw_body<T>(in, kc.rng, d, merged, stats));
  });
}

void attn_bw(KernelContext& kc, const AttnInputs& in, const Tensor& dmerged,
             const Tensor& merged, const Tensor& stats, const AttnOperand& dq,
             const AttnOperand& dk, const AttnOperand& dv, bool accumulate_kv) {
  const Dims d = check_inputs(in);
  for (const Tensor* t : {&dmerged, &merged}) {
    LS2_CHECK(t->dtype() == in.q.dtype());
    LS2_CHECK_EQ(t->numel(), d.B * d.Lq * d.N * d.D);
  }
  LS2_CHECK(stats.defined() && stats.dtype() == DType::kF32 &&
            stats.numel() == d.B * d.N * d.Lq)
      << "attn_bw needs the f32 [B, N, Lq] statistics attn_fw wrote";
  const AttnOperand* grads[] = {&dq, &dk, &dv};
  const AttnOperand* shapes[] = {&in.q, &in.k, &in.v};
  for (int g = 0; g < 3; ++g) {
    const AttnOperand& op = *grads[g];
    check_operand(op, "gradient");
    LS2_CHECK(op.dtype() == in.q.dtype() && op.B == shapes[g]->B && op.N == shapes[g]->N &&
              op.L == shapes[g]->L && op.D == shapes[g]->D)
        << "attention: gradient " << g << " must match its operand";
    LS2_CHECK(!op.bias.defined()) << "attention: a gradient operand takes no bias";
    // Heads write their rows concurrently: blocks sharing rows must not overlap.
    for (int h = 0; h < g; ++h) {
      const AttnOperand& o = *grads[h];
      LS2_CHECK(o.t.raw() != op.t.raw() || (o.is_rows && op.is_rows &&
                                            (o.col + o.N * o.D <= op.col ||
                                             op.col + op.N * op.D <= o.col)))
          << "attention: gradients " << h << " and " << g << " overlap";
    }
  }
  const int64_t kv = dk.bytes() + dv.bytes();
  const double pairs_d = static_cast<double>(d.B * d.N * d.Lq * d.Lk) * d.D;
  const simgpu::KernelDesc desc = attn_desc(
      "ls2.attn_bw", in, d,
      static_cast<int64_t>(dmerged.bytes() + merged.bytes() + stats.bytes()) + in.q.bytes() +
          in.k.bytes() + in.v.bytes() + bias_bytes(in.q) + bias_bytes(in.k) +
          bias_bytes(in.v) + (accumulate_kv ? kv : 0),
      dq.bytes() + kv, 10.0 * pairs_d,
      {{d.Lq, d.Lk, d.D}, {d.Lk, d.D, d.Lq}, {d.Lq, d.D, d.Lk}});
  std::vector<detail::BiasFold> folds;
  for (const AttnOperand* g : grads)
    if (g->dbias.defined()) folds.push_back({g->t, g->dbias, g->col});
  detail::launch_folding_bias_grad(kc, desc, folds, [&, in, d, accumulate_kv] {
    LS2_DISPATCH_FLOAT(in.q.dtype(), T,
                       attn_bw_body<T>(in, kc.rng, d, dmerged, stats, dq, dk, dv,
                                       accumulate_kv));
  });
}

namespace {

// One query row per task: attn_fw's row over the rows it attends, its keys
// gathered from the lane's pages through the block table, its values read
// in place, the context written straight into the head's slice of the
// merged row.
template <typename T>
void paged_attn_body(const Tensor& q, const Tensor& k_pool, const Tensor& v_pool,
                     const Tensor& table, const int32_t* lanes, const int32_t* q_begin,
                     const int32_t* kv_lens, float scale, const Tensor& merged) {
  const int64_t N = q.shape()[1], Lq = q.shape()[2], D = q.shape()[3];
  const int64_t pool_pages = k_pool.shape()[0], page = k_pool.shape()[2];
  const int64_t pps = table.shape()[1];
  const int32_t* tp = table.data<int32_t>();
  const T* qp = q.data<T>();
  const T* kp = k_pool.data<T>();
  const T* vp = v_pool.data<T>();
  T* mp = merged.data<T>();
  parallel_for(0, q.shape()[0] * N * Lq, [&](int64_t r) {  // r: q row ((b*N + n)*Lq + i)
    const int64_t b = r / (N * Lq), n = r / Lq % N, i = r % Lq;
    const int64_t len = std::min<int64_t>(q_begin[b] + i + 1, kv_lens[b]);
    const int32_t* row = tp + (lanes ? lanes[b] : b) * pps;
    auto pool_row = [&](const T* pool, int64_t j) {
      const int64_t pg = row[j / page];
      LS2_CHECK(pg >= 0 && pg < pool_pages) << "paged attn: page id out of range";
      return pool + ((pg * N + n) * page + j % page) * D;
    };
    std::vector<float> kt(static_cast<size_t>(D * len));
    for (int64_t j = 0; j < len; ++j) {
      const T* krow = pool_row(kp, j);
      for (int64_t d = 0; d < D; ++d) kt[d * len + j] = static_cast<float>(krow[d]);
    }
    RowScratch<T> w(len, D);
    attn_fw_row(
        qp + r * D, scale, kt.data(), len, D, len, [&](int64_t j) { return pool_row(vp, j); },
        RowDropout{}, w, mp + ((b * Lq + i) * N + n) * D);  // merged row (b, i)
  });
}

}  // namespace

void paged_attn(KernelContext& kc, const Tensor& q, const Tensor& k_pool, const Tensor& v_pool,
                const Tensor& block_table, const Tensor* lanes, const Tensor& q_begin,
                const Tensor& kv_lens, float scale, const Tensor& merged) {
  LS2_CHECK_EQ(q.shape().rank(), 4);
  LS2_CHECK(k_pool.shape() == v_pool.shape());
  LS2_CHECK_EQ(k_pool.shape().rank(), 4);
  LS2_CHECK_EQ(q.shape()[1], k_pool.shape()[1]);
  LS2_CHECK_EQ(q.shape()[3], k_pool.shape()[3]);
  LS2_CHECK(q.dtype() == k_pool.dtype() && q.dtype() == v_pool.dtype() &&
            q.dtype() == merged.dtype());
  LS2_CHECK_EQ(block_table.shape().rank(), 2);
  const int64_t B = q.shape()[0], N = q.shape()[1], Lq = q.shape()[2], D = q.shape()[3];
  LS2_CHECK(block_table.dtype() == DType::kI32);
  for (const Tensor* t : {lanes, &q_begin, &kv_lens}) {
    if (t == nullptr) continue;
    LS2_CHECK(t->dtype() == DType::kI32);
    LS2_CHECK_EQ(t->numel(), B);
  }
  LS2_CHECK(lanes != nullptr || block_table.shape()[0] == B)
      << "without lanes, batch row b is lane b of the full-lane table";
  LS2_CHECK_EQ(merged.numel(), q.numel());
  const int64_t Lcap = block_table.shape()[1] * k_pool.shape()[2];
  // The row metadata is host-written heap memory in every exec mode, so the
  // live extent is known at launch time — and checked here, before the body
  // could index past the table's reach.
  const int32_t* lp = lanes ? lanes->data<int32_t>() : nullptr;
  const int32_t* qb = q_begin.data<int32_t>();
  const int32_t* kl = kv_lens.data<int32_t>();
  // Consecutive batch rows of one lane at consecutive positions form one
  // SEGMENT — a packed step's prompt chunk — and read their lane's K/V rows
  // once, as a varlen attention kernel does; every other row is a segment
  // of its own.
  int64_t live_rows = 0, live_pairs = 0, segments = 0, reach = 0;
  for (int64_t b = 0; b < B; ++b) {
    LS2_CHECK(lp == nullptr || (lp[b] >= 0 && lp[b] < block_table.shape()[0]))
        << "paged attn: lane " << lp[b] << " out of range";
    LS2_CHECK(qb[b] >= 0) << "paged attn: row " << b << " q_begin " << qb[b];
    LS2_CHECK(kl[b] >= 0 && kl[b] <= Lcap)
        << "paged attn: row " << b << " kv_len " << kl[b] << " beyond reach " << Lcap;
    const bool joins = b > 0 && lp != nullptr && lp[b] == lp[b - 1] && qb[b] == qb[b - 1] + Lq;
    if (!joins) {
      live_rows += reach;
      reach = 0;
      ++segments;
    }
    reach = std::max(reach, std::min<int64_t>(qb[b] + Lq, kl[b]));
    for (int64_t i = 0; i < Lq; ++i) live_pairs += std::min<int64_t>(qb[b] + i + 1, kl[b]);
  }
  live_rows += reach;
  // Each segment reads its lane, q_begin and kv_len once.
  const int64_t seg_meta = (lanes ? 3 : 2) * static_cast<int64_t>(sizeof(int32_t));
  const int64_t elem = static_cast<int64_t>(dtype_size(q.dtype()));
  auto cost = [&](int64_t rows, int64_t pairs, int64_t segs) {
    simgpu::KernelDesc d;
    d.name = "ls2.paged_attn";
    d.bytes_read = static_cast<int64_t>(q.bytes() + block_table.bytes()) + segs * seg_meta +
                   2 * rows * N * D * elem;
    d.bytes_written = static_cast<int64_t>(merged.bytes());
    d.flops = static_cast<double>(pairs * N * (4 * D + 4));
    d.mem_efficiency = 0.75;  // the fused transpose kernels' (kernels/transform.cc)
    return d;
  };
  kc.dev.launch(cost(B * Lcap, B * Lq * Lcap, B), cost(live_rows, live_pairs, segments), [&] {
    LS2_DISPATCH_FLOAT(q.dtype(), T,
                       paged_attn_body<T>(q, k_pool, v_pool, block_table, lp, qb, kl, scale,
                                          merged));
  });
}

}  // namespace ls2::kern
