#include "kernels/transform.h"

#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "kernels/elementwise.h"

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

// Scatter [B, N, Lq, D] head rows through a block table into a paged pool
// [P, N, page, D]: logical row l of lane `lane` lands in page
// table[lane][l / page] at in-page row l % page. Source row i of batch row b
// is position q_begin[b] + i of lane lanes[b] (lane b without a lane list);
// the positions [begins[b], ends[b]) are written, or every computed row
// without a write range.
template <typename T>
void kv_paged_scatter_body(const Tensor& src, const Tensor& pool, const Tensor& table,
                           const int32_t* lanes, const int32_t* q_begin,
                           const int32_t* begins, const int32_t* ends) {
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
    const int64_t q0 = q_begin[b];
    const int64_t lo = begins ? begins[b] : q0, hi = ends ? ends[b] : q0 + Lq;
    LS2_CHECK(lo >= q0 && lo <= hi && hi <= q0 + Lq) << "kv pool: bad write range";
    for (int64_t l = lo; l < hi; ++l) {
      std::memcpy(dst_row(row, n, l), srow + (l - q0) * D,
                  static_cast<size_t>(D) * sizeof(T));
    }
  });
}

}  // namespace

void kv_cache_store_paged(KernelContext& kc, const Tensor& k_new, const Tensor& v_new,
                          const Tensor& k_pool, const Tensor& v_pool,
                          const Tensor& block_table, const Tensor& lanes,
                          const Tensor& q_begin, const Tensor& write_begin,
                          const Tensor& write_end) {
  LS2_CHECK_EQ(k_new.shape().rank(), 4);
  LS2_CHECK(k_new.shape() == v_new.shape());
  LS2_CHECK(k_pool.shape() == v_pool.shape());
  LS2_CHECK_EQ(k_pool.shape().rank(), 4);
  LS2_CHECK_EQ(k_new.shape()[1], k_pool.shape()[1]);
  LS2_CHECK_EQ(k_new.shape()[3], k_pool.shape()[3]);
  LS2_CHECK(block_table.dtype() == DType::kI32);
  LS2_CHECK_EQ(block_table.shape().rank(), 2);
  LS2_CHECK(q_begin.defined());
  LS2_CHECK(write_begin.defined() == write_end.defined()) << "a write range has two ends";
  LS2_CHECK(lanes.defined() || k_new.shape()[0] == block_table.shape()[0])
      << "without lanes, batch row b is lane b of the full-lane table";
  const int64_t nb = static_cast<int64_t>(k_new.bytes());
  int64_t meta = static_cast<int64_t>(block_table.bytes());
  for (const Tensor* t : {&lanes, &q_begin, &write_begin, &write_end}) {
    if (!t->defined()) continue;
    LS2_CHECK(t->dtype() == DType::kI32);
    LS2_CHECK_EQ(t->numel(), k_new.shape()[0]);
    meta += static_cast<int64_t>(t->bytes());
  }
  auto i32 = [](const Tensor& t) { return t.defined() ? t.data<int32_t>() : nullptr; };
  auto body = [&] {
    LS2_DISPATCH_FLOAT(k_new.dtype(), T, {
      kv_paged_scatter_body<T>(k_new, k_pool, block_table, i32(lanes), i32(q_begin),
                               i32(write_begin), i32(write_end));
      kv_paged_scatter_body<T>(v_new, v_pool, block_table, i32(lanes), i32(q_begin),
                               i32(write_begin), i32(write_end));
    });
  };
  kc.dev.launch(desc("ls2.kv_store_paged", 2 * nb + meta, 2 * nb, kFusedTransposeEff), body);
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

void gather_rows(KernelContext& kc, const Tensor& x, const Tensor& index, const Tensor& y) {
  LS2_CHECK(index.dtype() == DType::kI32);
  LS2_CHECK(x.dtype() == y.dtype());
  const int64_t R = x.shape()[0], n = index.numel();
  LS2_CHECK_EQ(y.shape()[0], n);
  LS2_CHECK_EQ(x.numel() / R, y.numel() / n) << "gather_rows: row sizes differ";
  const int64_t row_bytes = static_cast<int64_t>(y.bytes()) / n;
  const int32_t* ip = index.data<int32_t>();
  for (int64_t i = 0; i < n; ++i)
    LS2_CHECK(ip[i] >= 0 && ip[i] < R) << "gather_rows: row " << ip[i] << " out of " << R;
  kc.dev.launch(desc("ls2.gather_rows", static_cast<int64_t>(y.bytes() + index.bytes()),
                     static_cast<int64_t>(y.bytes()), kFusedTransposeEff),
                [&] {
                  const auto* xp = static_cast<const uint8_t*>(x.raw());
                  auto* yp = static_cast<uint8_t*>(y.raw());
                  for (int64_t i = 0; i < n; ++i)
                    std::memcpy(yp + i * row_bytes, xp + ip[i] * row_bytes,
                                static_cast<size_t>(row_bytes));
                });
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
