#include "kernels/transform.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "kernels/elementwise.h"
#include "kernels/softmax.h"

namespace ls2::kern {

namespace {

simgpu::KernelDesc desc(std::string name, int64_t br, int64_t bw, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = br;
  d.bytes_written = bw;
  d.flops = 0;
  d.mem_efficiency = eff;
  return d;
}

// Strided copies achieve less of peak than streaming kernels.
constexpr double kBaselineTransposeEff = 0.55;
constexpr double kFusedTransposeEff = 0.75;

template <typename T>
void split_body(const Tensor& x, const Tensor* bias, const std::vector<Tensor>& outs) {
  const int64_t B = outs[0].shape()[0], N = outs[0].shape()[1], L = outs[0].shape()[2],
                D = outs[0].shape()[3];
  const int64_t G = static_cast<int64_t>(outs.size());
  const int64_t H = N * D;
  const T* xp = x.data<T>();
  const T* bp = bias ? bias->data<T>() : nullptr;
  parallel_for(0, B * L, [&](int64_t bl) {
    const int64_t b = bl / L, l = bl % L;
    const T* xrow = xp + bl * G * H;
    for (int64_t g = 0; g < G; ++g) {
      T* op = outs[static_cast<size_t>(g)].data<T>();
      for (int64_t n = 0; n < N; ++n) {
        for (int64_t d = 0; d < D; ++d) {
          const int64_t src = g * H + n * D + d;
          float v = static_cast<float>(xrow[src]);
          if (bp) v += static_cast<float>(bp[src]);
          op[((b * N + n) * L + l) * D + d] = T(v);
        }
      }
    }
  });
}

template <typename T>
void merge_body(const std::vector<Tensor>& ins, const Tensor& dx) {
  const int64_t B = ins[0].shape()[0], N = ins[0].shape()[1], L = ins[0].shape()[2],
                D = ins[0].shape()[3];
  const int64_t G = static_cast<int64_t>(ins.size());
  const int64_t H = N * D;
  T* xp = dx.data<T>();
  parallel_for(0, B * L, [&](int64_t bl) {
    const int64_t b = bl / L, l = bl % L;
    T* xrow = xp + bl * G * H;
    for (int64_t g = 0; g < G; ++g) {
      const T* ip = ins[static_cast<size_t>(g)].data<T>();
      for (int64_t n = 0; n < N; ++n) {
        for (int64_t d = 0; d < D; ++d) {
          xrow[g * H + n * D + d] = ip[((b * N + n) * L + l) * D + d];
        }
      }
    }
  });
}

int64_t total_bytes(const std::vector<Tensor>& ts) {
  int64_t b = 0;
  for (const Tensor& t : ts) b += static_cast<int64_t>(t.bytes());
  return b;
}

void check_split_shapes(const Tensor& x, const std::vector<Tensor>& outs) {
  LS2_CHECK(!outs.empty());
  LS2_CHECK_EQ(outs[0].shape().rank(), 4);
  int64_t out_elems = 0;
  for (const Tensor& o : outs) {
    LS2_CHECK(o.shape() == outs[0].shape()) << "head tensors must agree";
    out_elems += o.numel();
  }
  LS2_CHECK_EQ(x.numel(), out_elems);
}

}  // namespace

void bias_split_transpose_fw(KernelContext& kc, Impl impl, const Tensor& x,
                             const Tensor& bias, const std::vector<Tensor>& outs) {
  check_split_shapes(x, outs);
  LS2_CHECK_EQ(bias.numel(), x.shape()[-1]);
  if (impl == Impl::kLS2) {
    kc.dev.launch(desc("ls2.bias_split_transpose",
                       static_cast<int64_t>(x.bytes() + bias.bytes()), total_bytes(outs),
                       kFusedTransposeEff),
                  [&] {
                    LS2_DISPATCH_FLOAT(x.dtype(), T, split_body<T>(x, &bias, outs));
                  });
    return;
  }
  // Baseline: a bias kernel over the full projection, then one strided
  // transpose launch per head tensor.
  baseline::add_bias(kc, x, bias, x);
  for (size_t g = 0; g < outs.size(); ++g) {
    const bool last = g + 1 == outs.size();
    kc.dev.launch(desc("torch.transpose_0213",
                       static_cast<int64_t>(outs[g].bytes()),
                       static_cast<int64_t>(outs[g].bytes()), kBaselineTransposeEff),
                  // All slices are produced by one body call on the last
                  // launch; earlier launches charge their traffic only.
                  last ? std::function<void()>([&] {
                    LS2_DISPATCH_FLOAT(x.dtype(), T, split_body<T>(x, nullptr, outs));
                  })
                       : std::function<void()>(nullptr));
  }
}

void split_transpose_bw(KernelContext& kc, Impl impl, const std::vector<Tensor>& douts,
                        const Tensor& dx) {
  check_split_shapes(dx, douts);
  if (impl == Impl::kLS2) {
    kc.dev.launch(desc("ls2.split_transpose_bw", total_bytes(douts),
                       static_cast<int64_t>(dx.bytes()), kFusedTransposeEff),
                  [&] { LS2_DISPATCH_FLOAT(dx.dtype(), T, merge_body<T>(douts, dx)); });
    return;
  }
  for (size_t g = 0; g < douts.size(); ++g) {
    const bool last = g + 1 == douts.size();
    kc.dev.launch(desc("torch.transpose_0213_bw",
                       static_cast<int64_t>(douts[g].bytes()),
                       static_cast<int64_t>(douts[g].bytes()), kBaselineTransposeEff),
                  last ? std::function<void()>([&] {
                    LS2_DISPATCH_FLOAT(dx.dtype(), T, merge_body<T>(douts, dx));
                  })
                       : std::function<void()>(nullptr));
  }
}

void merge_heads_fw(KernelContext& kc, Impl impl, const Tensor& x, const Tensor& y) {
  LS2_CHECK_EQ(x.shape().rank(), 4);
  LS2_CHECK_EQ(x.numel(), y.numel());
  const double eff = impl == Impl::kLS2 ? kFusedTransposeEff : kBaselineTransposeEff;
  const std::string sys = impl == Impl::kLS2 ? "ls2" : "torch";
  kc.dev.launch(desc(sys + ".merge_heads", static_cast<int64_t>(x.bytes()),
                     static_cast<int64_t>(y.bytes()), eff),
                [&] { LS2_DISPATCH_FLOAT(x.dtype(), T, merge_body<T>({x}, y)); });
}

namespace {

// Scatter [B, N, Lq, D] head rows into cache slots [S, N, Lmax, D]:
// row l of batch item b lands at cache row start_b + l of slot slot_b.
// `slot_ids` maps batch row -> slot (nullptr: slot s = row s, the decode
// full-slot batch); `positions` gives the start row per batch item
// (nullptr: 0, the prefill case).
template <typename T>
void kv_scatter_body(const Tensor& src, const Tensor& cache, const Tensor* slot_ids,
                     const Tensor* positions) {
  const int64_t N = src.shape()[1], Lq = src.shape()[2], D = src.shape()[3];
  const int64_t Lmax = cache.shape()[2];
  const int32_t* sp = slot_ids ? slot_ids->data<int32_t>() : nullptr;
  const int32_t* pp = positions ? positions->data<int32_t>() : nullptr;
  const T* xp = src.data<T>();
  T* cp = cache.data<T>();
  parallel_for(0, src.shape()[0] * N, [&](int64_t bn) {
    const int64_t b = bn / N, n = bn % N;
    const int64_t slot = sp ? sp[b] : b;
    const int64_t start = pp ? pp[b] : 0;
    LS2_CHECK(slot >= 0 && slot < cache.shape()[0]) << "kv cache slot out of range";
    LS2_CHECK(start >= 0 && start + Lq <= Lmax) << "kv cache overflow: slot " << slot;
    const T* srow = xp + (bn * Lq) * D;
    T* crow = cp + ((slot * N + n) * Lmax + start) * D;
    std::memcpy(crow, srow, static_cast<size_t>(Lq * D) * sizeof(T));
  });
}

void kv_write(KernelContext& kc, Impl impl, const char* tag, const Tensor& k_new,
              const Tensor& v_new, const Tensor& k_cache, const Tensor& v_cache,
              const Tensor* slots, const Tensor* positions) {
  LS2_CHECK_EQ(k_new.shape().rank(), 4);
  LS2_CHECK(k_new.shape() == v_new.shape());
  LS2_CHECK(k_cache.shape() == v_cache.shape());
  LS2_CHECK_EQ(k_new.shape()[1], k_cache.shape()[1]);
  LS2_CHECK_EQ(k_new.shape()[3], k_cache.shape()[3]);
  const int64_t nb = static_cast<int64_t>(k_new.bytes());
  auto body = [&] {
    LS2_DISPATCH_FLOAT(k_new.dtype(), T, {
      kv_scatter_body<T>(k_new, k_cache, slots, positions);
      kv_scatter_body<T>(v_new, v_cache, slots, positions);
    });
  };
  if (impl == Impl::kLS2) {
    kc.dev.launch(desc(std::string("ls2.") + tag, 2 * nb + k_new.shape()[0] * 8, 2 * nb,
                       kFusedTransposeEff),
                  body);
    return;
  }
  // Baseline: one strided copy launch per tensor.
  kc.dev.launch(desc(std::string("torch.") + tag + "_k", nb, nb, kBaselineTransposeEff),
                nullptr);
  kc.dev.launch(desc(std::string("torch.") + tag + "_v", nb, nb, kBaselineTransposeEff),
                body);
}

}  // namespace

void kv_cache_store(KernelContext& kc, Impl impl, const Tensor& k_new, const Tensor& v_new,
                    const Tensor& k_cache, const Tensor& v_cache, const Tensor& slots) {
  LS2_CHECK(slots.dtype() == DType::kI32);
  LS2_CHECK_EQ(slots.numel(), k_new.shape()[0]);
  kv_write(kc, impl, "kv_cache_store", k_new, v_new, k_cache, v_cache, &slots,
           /*positions=*/nullptr);
}

namespace {

// Scatter [B, N, Lq, D] head rows through a block table into a paged pool
// [P, N, page, D]: logical row l of lane `lane` lands in page
// table[lane][l / page] at in-page row l % page. Prefill (`write_begin`/
// `write_end` non-null) writes the positions [begin, end), source row i
// holding position q_begin[b] + i; decode append (`positions` non-null)
// writes the single row positions[b] with lane = b.
template <typename T>
void kv_paged_scatter_body(const Tensor& src, const Tensor& pool, const Tensor& table,
                           const int32_t* lanes, const int32_t* q_begin,
                           const int32_t* begins, const int32_t* ends,
                           const int32_t* positions) {
  const int64_t N = src.shape()[1], Lq = src.shape()[2], D = src.shape()[3];
  const int64_t pool_pages = pool.shape()[0], page = pool.shape()[2];
  const int64_t pps = table.shape()[1];
  const int32_t* tp = table.data<int32_t>();
  const T* xp = src.data<T>();
  T* cp = pool.data<T>();
  auto dst_row = [&](const int32_t* row, int64_t n, int64_t pos) -> T* {
    LS2_CHECK(pos >= 0 && pos < pps * page) << "kv pool: position " << pos
                                            << " beyond block table reach";
    const int64_t pg = row[pos / page];
    LS2_CHECK(pg >= 0 && pg < pool_pages) << "kv pool: page id out of range";
    return cp + ((pg * N + n) * page + pos % page) * D;
  };
  parallel_for(0, src.shape()[0] * N, [&](int64_t bn) {
    const int64_t b = bn / N, n = bn % N;
    const int64_t lane = lanes ? lanes[b] : b;
    LS2_CHECK(lane >= 0 && lane < table.shape()[0]) << "kv pool: lane out of range";
    const int32_t* row = tp + lane * pps;
    const T* srow = xp + (bn * Lq) * D;
    if (positions) {
      std::memcpy(dst_row(row, n, positions[b]), srow,
                  static_cast<size_t>(D) * sizeof(T));
      return;
    }
    const int64_t q0 = q_begin[b], lo = begins[b], hi = ends[b];
    LS2_CHECK(lo >= q0 && lo <= hi && hi <= q0 + Lq) << "kv pool: bad write range";
    for (int64_t l = lo; l < hi; ++l) {
      std::memcpy(dst_row(row, n, l), srow + (l - q0) * D,
                  static_cast<size_t>(D) * sizeof(T));
    }
  });
}

void kv_paged_write(KernelContext& kc, Impl impl, const char* tag, const Tensor& k_new,
                    const Tensor& v_new, const Tensor& k_pool, const Tensor& v_pool,
                    const Tensor& table, const Tensor* lanes, const Tensor* q_begin,
                    const Tensor* write_begin, const Tensor* write_end,
                    const Tensor* positions) {
  LS2_CHECK_EQ(k_new.shape().rank(), 4);
  LS2_CHECK(k_new.shape() == v_new.shape());
  LS2_CHECK(k_pool.shape() == v_pool.shape());
  LS2_CHECK_EQ(k_pool.shape().rank(), 4);
  LS2_CHECK_EQ(k_new.shape()[1], k_pool.shape()[1]);
  LS2_CHECK_EQ(k_new.shape()[3], k_pool.shape()[3]);
  LS2_CHECK(table.dtype() == DType::kI32);
  LS2_CHECK_EQ(table.shape().rank(), 2);
  const int64_t nb = static_cast<int64_t>(k_new.bytes());
  auto i32 = [](const Tensor* t) { return t ? t->data<int32_t>() : nullptr; };
  int64_t meta = static_cast<int64_t>(table.bytes());
  for (const Tensor* t : {lanes, q_begin, write_begin, write_end, positions})
    meta += t ? static_cast<int64_t>(t->bytes()) : 0;
  auto body = [&] {
    LS2_DISPATCH_FLOAT(k_new.dtype(), T, {
      kv_paged_scatter_body<T>(k_new, k_pool, table, i32(lanes), i32(q_begin),
                               i32(write_begin), i32(write_end), i32(positions));
      kv_paged_scatter_body<T>(v_new, v_pool, table, i32(lanes), i32(q_begin),
                               i32(write_begin), i32(write_end), i32(positions));
    });
  };
  if (impl == Impl::kLS2) {
    kc.dev.launch(desc(std::string("ls2.") + tag, 2 * nb + meta, 2 * nb,
                       kFusedTransposeEff),
                  body);
    return;
  }
  kc.dev.launch(desc(std::string("torch.") + tag + "_k", nb + meta, nb,
                     kBaselineTransposeEff),
                nullptr);
  kc.dev.launch(desc(std::string("torch.") + tag + "_v", nb + meta, nb,
                     kBaselineTransposeEff),
                body);
}

// One query row per task: scores over the rows it attends, read in place
// through its lane's block table, the shared masked-softmax row, then the
// context sum, written straight into the head's slice of the merged row.
// The accumulation orders are the host GEMM's (gemm/gemm.cc), which is what
// keeps cached prefill and decode bitwise equal to a full re-forward.
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
    std::vector<float> qs(static_cast<size_t>(D));
    for (int64_t d = 0; d < D; ++d) qs[d] = scale * static_cast<float>(qp[r * D + d]);
    std::vector<T> scores(static_cast<size_t>(len)), probs(static_cast<size_t>(len));
    for (int64_t j = 0; j < len; ++j) {
      const T* krow = pool_row(kp, j);
      float acc = 0.0f;
      for (int64_t d = 0; d < D; ++d) {
        if (qs[d] == 0.0f) continue;
        acc += qs[d] * static_cast<float>(krow[d]);
      }
      scores[j] = T(acc);
    }
    attn_softmax_row(scores.data(), probs.data(), len, len);
    std::vector<float> ctx(static_cast<size_t>(D), 0.0f);
    for (int64_t j = 0; j < len; ++j) {
      const float p = static_cast<float>(probs[j]);
      if (p == 0.0f) continue;
      const T* vrow = pool_row(vp, j);
      for (int64_t d = 0; d < D; ++d) ctx[d] += p * static_cast<float>(vrow[d]);
    }
    T* out = mp + ((b * Lq + i) * N + n) * D;  // merged row (b, i), columns [n*D, (n+1)*D)
    for (int64_t d = 0; d < D; ++d) out[d] = T(ctx[d]);
  });
}

}  // namespace

void kv_cache_store_paged(KernelContext& kc, Impl impl, const Tensor& k_new,
                          const Tensor& v_new, const Tensor& k_pool, const Tensor& v_pool,
                          const Tensor& block_table, const Tensor& lanes,
                          const Tensor& q_begin, const Tensor& write_begin,
                          const Tensor& write_end) {
  for (const Tensor* t : {&lanes, &q_begin, &write_begin, &write_end}) {
    LS2_CHECK(t->dtype() == DType::kI32);
    LS2_CHECK_EQ(t->numel(), k_new.shape()[0]);
  }
  kv_paged_write(kc, impl, "kv_store_paged", k_new, v_new, k_pool, v_pool, block_table,
                 &lanes, &q_begin, &write_begin, &write_end, /*positions=*/nullptr);
}

void kv_cache_append_paged(KernelContext& kc, const Tensor& k_new, const Tensor& v_new,
                           const Tensor& k_pool, const Tensor& v_pool,
                           const Tensor& block_table, const Tensor& positions) {
  LS2_CHECK(positions.dtype() == DType::kI32);
  LS2_CHECK_EQ(k_new.shape()[2], 1) << "append writes one token per lane";
  LS2_CHECK_EQ(k_new.shape()[0], block_table.shape()[0])
      << "decode appends run at full lane batch";
  LS2_CHECK_EQ(positions.numel(), k_new.shape()[0]);
  kv_paged_write(kc, Impl::kLS2, "kv_append_paged", k_new, v_new, k_pool, v_pool,
                 block_table, /*lanes=*/nullptr, /*q_begin=*/nullptr,
                 /*write_begin=*/nullptr, /*write_end=*/nullptr, &positions);
}

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
  int64_t live_rows = 0, live_pairs = 0;
  for (int64_t b = 0; b < B; ++b) {
    LS2_CHECK(lp == nullptr || (lp[b] >= 0 && lp[b] < block_table.shape()[0]))
        << "paged attn: lane " << lp[b] << " out of range";
    LS2_CHECK(qb[b] >= 0) << "paged attn: row " << b << " q_begin " << qb[b];
    LS2_CHECK(kl[b] >= 0 && kl[b] <= Lcap)
        << "paged attn: row " << b << " kv_len " << kl[b] << " beyond reach " << Lcap;
    live_rows += std::min<int64_t>(qb[b] + Lq, kl[b]);
    for (int64_t i = 0; i < Lq; ++i) live_pairs += std::min<int64_t>(qb[b] + i + 1, kl[b]);
  }
  int64_t meta = static_cast<int64_t>(block_table.bytes() + q_begin.bytes() + kv_lens.bytes());
  if (lanes) meta += static_cast<int64_t>(lanes->bytes());
  const int64_t elem = static_cast<int64_t>(dtype_size(q.dtype()));
  auto cost = [&](int64_t rows, int64_t pairs) {
    simgpu::KernelDesc d = desc("ls2.paged_attn",
                                static_cast<int64_t>(q.bytes()) + meta + 2 * rows * N * D * elem,
                                static_cast<int64_t>(merged.bytes()), kFusedTransposeEff);
    d.flops = static_cast<double>(pairs * N * (4 * D + 4));
    return d;
  };
  kc.dev.launch(cost(B * Lcap, B * Lq * Lcap), cost(live_rows, live_pairs), [&] {
    LS2_DISPATCH_FLOAT(q.dtype(), T,
                       paged_attn_body<T>(q, k_pool, v_pool, block_table, lp, qb, kl, scale,
                                          merged));
  });
}

void kv_page_copy(KernelContext& kc, const Tensor& k_pool, const Tensor& v_pool,
                  int64_t src_page, int64_t dst_page, int64_t rows) {
  LS2_CHECK(k_pool.shape() == v_pool.shape());
  LS2_CHECK_EQ(k_pool.shape().rank(), 4);
  const int64_t P = k_pool.shape()[0], N = k_pool.shape()[1], page = k_pool.shape()[2],
                D = k_pool.shape()[3];
  LS2_CHECK(src_page >= 0 && src_page < P && dst_page >= 0 && dst_page < P &&
            src_page != dst_page);
  LS2_CHECK(rows >= 0 && rows <= page);
  if (rows == 0) return;
  const int64_t nb = rows * N * D * static_cast<int64_t>(dtype_size(k_pool.dtype()));
  auto body = [&] {
    LS2_DISPATCH_FLOAT(k_pool.dtype(), T, {
      for (const Tensor* pool : {&k_pool, &v_pool}) {
        T* cp = pool->data<T>();
        parallel_for(0, N, [&](int64_t n) {
          std::memcpy(cp + ((dst_page * N + n) * page) * D,
                      cp + ((src_page * N + n) * page) * D,
                      static_cast<size_t>(rows * D) * sizeof(T));
        });
      }
    });
  };
  kc.dev.launch(desc("ls2.kv_page_copy", 2 * nb, 2 * nb, kFusedTransposeEff), body);
}

void merge_heads_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& dx) {
  LS2_CHECK_EQ(dx.shape().rank(), 4);
  LS2_CHECK_EQ(dy.numel(), dx.numel());
  const double eff = impl == Impl::kLS2 ? kFusedTransposeEff : kBaselineTransposeEff;
  const std::string sys = impl == Impl::kLS2 ? "ls2" : "torch";
  kc.dev.launch(desc(sys + ".merge_heads_bw", static_cast<int64_t>(dy.bytes()),
                     static_cast<int64_t>(dx.bytes()), eff),
                [&] { LS2_DISPATCH_FLOAT(dy.dtype(), T, split_body<T>(dy, nullptr, {dx})); });
}

}  // namespace ls2::kern
