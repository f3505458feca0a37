#include "kernels/embedding.h"

#include <cmath>

#include "common/parallel.h"

namespace ls2::kern {

void init_sinusoidal_positions(const Tensor& pos) {
  LS2_CHECK_EQ(pos.shape().rank(), 2);
  const int64_t lmax = pos.shape()[0], h = pos.shape()[1];
  std::vector<float> host(static_cast<size_t>(lmax * h));
  for (int64_t p = 0; p < lmax; ++p) {
    for (int64_t j = 0; j < h; ++j) {
      const double freq = std::pow(10000.0, -2.0 * static_cast<double>(j / 2) /
                                                static_cast<double>(h));
      const double angle = static_cast<double>(p) * freq;
      host[static_cast<size_t>(p * h + j)] =
          static_cast<float>((j % 2 == 0) ? std::sin(angle) : std::cos(angle));
    }
  }
  pos.copy_from(host);
}

namespace {

simgpu::KernelDesc desc(std::string name, int64_t br, int64_t bw, double flops, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = br;
  d.bytes_written = bw;
  d.flops = flops;
  d.mem_efficiency = eff;
  return d;
}

template <typename T>
void embedding_fw_body(const Tensor& ids, const Tensor& emb, const Tensor& pos,
                       const int32_t* starts, const Tensor& y, const Tensor& mask, float scale,
                       float p, const Rng& rng, uint64_t stream, uint64_t index_offset,
                       int32_t pad_id) {
  const int64_t tokens = ids.numel();
  const int64_t H = emb.shape()[1];
  const int64_t L = ids.shape()[-1];
  const int32_t* idp = ids.data<int32_t>();
  const T* ep = emb.data<T>();
  const T* pp = pos.data<T>();
  T* yp = y.data<T>();
  uint8_t* mp = mask.defined() ? mask.data<uint8_t>() : nullptr;
  const float keep_scale = 1.0f / (1.0f - p);
  parallel_for(0, tokens, [&](int64_t t) {
    const int32_t w = idp[t];
    const int64_t l = (starts ? starts[t / L] : 0) + t % L;
    T* yrow = yp + t * H;
    uint8_t* mrow = mp ? mp + t * H : nullptr;
    if (w == pad_id) {
      for (int64_t j = 0; j < H; ++j) {
        yrow[j] = T(0.0f);
        if (mrow) mrow[j] = 0;
      }
      return;
    }
    LS2_CHECK(w >= 0 && w < emb.shape()[0]) << "token id " << w << " out of vocabulary";
    const T* erow = ep + static_cast<int64_t>(w) * H;
    const T* prow = pp + l * H;
    for (int64_t j = 0; j < H; ++j) {
      const float v = scale * static_cast<float>(erow[j]) + static_cast<float>(prow[j]);
      if (!mrow) {
        yrow[j] = T(v);
        continue;
      }
      const uint8_t keep =
          rng.uniform(stream, index_offset + static_cast<uint64_t>(t * H + j)) >= p ? 1 : 0;
      mrow[j] = keep;
      yrow[j] = T(keep ? v * keep_scale : 0.0f);
    }
  });
}

template <typename T>
void embedding_bw_body(const Tensor& dy, const Tensor& ids, const Tensor& mask,
                       const Tensor& d_emb, float scale, float p, int32_t pad_id) {
  const int64_t tokens = ids.numel();
  const int64_t H = d_emb.shape()[1];
  const int32_t* idp = ids.data<int32_t>();
  const T* dyp = dy.data<T>();
  const uint8_t* mp = mask.data<uint8_t>();
  T* dep = d_emb.data<T>();
  const float keep_scale = 1.0f / (1.0f - p);
  // Column-parallel accumulation: each worker owns a stripe of hidden dims,
  // so the += below never races — the host-side equivalent of the paper's
  // atomicAdd aggregation.
  parallel_for_chunks(0, H, 64, [&](int64_t j_lo, int64_t j_hi) {
    for (int64_t t = 0; t < tokens; ++t) {
      const int32_t w = idp[t];
      if (w == pad_id) continue;
      const T* dyrow = dyp + t * H;
      const uint8_t* mrow = mp + t * H;
      T* drow = dep + static_cast<int64_t>(w) * H;
      for (int64_t j = j_lo; j < j_hi; ++j) {
        if (!mrow[j]) continue;
        drow[j] = T(static_cast<float>(drow[j]) +
                    scale * keep_scale * static_cast<float>(dyrow[j]));
      }
    }
  });
}

}  // namespace

void embedding_fw(KernelContext& kc, Impl impl, const Tensor& ids, const Tensor& emb,
                  const Tensor& pos, const Tensor& y, const Tensor& mask, float scale,
                  float p, uint64_t stream, int32_t pad_id, const Tensor* starts) {
  LS2_CHECK(p >= 0.0f && p < 1.0f);
  LS2_CHECK(mask.defined() || p == 0.0f) << "dropout needs a mask";
  LS2_CHECK_EQ(emb.shape().rank(), 2);
  const int64_t tokens = ids.numel();
  const int64_t B = ids.shape()[0], L = ids.shape()[-1];
  const int64_t H = emb.shape()[1];
  LS2_CHECK_EQ(y.numel(), tokens * H);
  LS2_CHECK(!mask.defined() || mask.numel() == tokens * H);
  // The row starts are host-written heap metadata in every exec mode, so
  // the positions are checked here, before the body could read past the
  // table.
  LS2_CHECK(starts == nullptr || (starts->dtype() == DType::kI32 && starts->numel() == B));
  const int32_t* sp = starts ? starts->data<int32_t>() : nullptr;
  for (int64_t b = 0; b < (sp ? B : 1); ++b) {
    const int64_t first = sp ? sp[b] : 0;
    LS2_CHECK(first >= 0 && first + L <= pos.shape()[0])
        << "positions [" << first << ", " << first + L << ") beyond the position table";
  }
  const int64_t act_bytes = static_cast<int64_t>(y.bytes());
  const int64_t mask_bytes = mask.defined() ? static_cast<int64_t>(mask.bytes()) : 0;
  const int64_t start_bytes = starts ? static_cast<int64_t>(starts->bytes()) : 0;
  const int64_t lookup_read = tokens * (4 + H * static_cast<int64_t>(dtype_size(emb.dtype())));

  // Microbatch slice offset, baked at launch time: the j-th microbatch's
  // tokens are the global token range [j*tokens, (j+1)*tokens).
  const uint64_t mb_off = kc.microbatch * static_cast<uint64_t>(tokens * H);
  auto body = [&, scale, p, stream, mb_off, pad_id] {
    LS2_DISPATCH_FLOAT(emb.dtype(), T,
                       embedding_fw_body<T>(ids, emb, pos, sp, y, mask, scale, p, kc.rng,
                                            stream, mb_off, pad_id));
  };

  if (impl == Impl::kLS2) {
    kc.dev.launch(desc("ls2.embedding_fw", lookup_read + act_bytes /*pos rows*/ + start_bytes,
                       act_bytes + mask_bytes,
                       static_cast<double>(tokens) * H * (mask.defined() ? 4.0 : 2.0), 0.85),
                  body);
    return;
  }
  // Baseline: lookup, scale, positional add, dropout — one launch each, every
  // intermediate materialised. Per-row starts make the lookup gather each
  // row's position rows too; without a mask there is no dropout stage.
  kc.dev.launch(desc("torch.embedding_lookup",
                     lookup_read + (starts ? start_bytes + act_bytes : 0), act_bytes, 0, 0.70),
                nullptr);
  kc.dev.launch(desc("torch.embedding_scale", act_bytes, act_bytes,
                     static_cast<double>(tokens) * H, 0.70),
                nullptr);
  kc.dev.launch(desc("torch.pos_add", 2 * act_bytes, act_bytes,
                     static_cast<double>(tokens) * H, 0.70),
                mask.defined() ? nullptr : std::function<void()>(body));
  if (!mask.defined()) return;
  kc.dev.launch(desc("torch.embedding_dropout", act_bytes, act_bytes + mask_bytes,
                     static_cast<double>(tokens) * H * 3.0, 0.65),
                body);
}

void embedding_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& ids,
                  const Tensor& mask, const Tensor& d_emb, float scale, float p,
                  int32_t pad_id, bool zero_first) {
  const int64_t tokens = ids.numel();
  const int64_t H = d_emb.shape()[1];
  LS2_CHECK_EQ(dy.numel(), tokens * H);
  const int64_t act_bytes = static_cast<int64_t>(dy.bytes());
  const int64_t table_bytes = static_cast<int64_t>(d_emb.bytes());

  if (impl == Impl::kLS2) {
    if (zero_first) {
      kc.dev.launch(desc("ls2.embedding_zero_grad", 0, table_bytes, 0, 0.85),
                    [&] { d_emb.zero_(); });
    }
    kc.dev.launch(desc("ls2.embedding_bw_scatter",
                       act_bytes + static_cast<int64_t>(mask.bytes()) + tokens * 4,
                       2 * act_bytes /* atomic rmw traffic */,
                       static_cast<double>(tokens) * H * 2.0, 0.75),
                  [&, scale, p, pad_id] {
                    LS2_DISPATCH_FLOAT(dy.dtype(), T,
                                       embedding_bw_body<T>(dy, ids, mask, d_emb, scale, p,
                                                            pad_id));
                  });
    return;
  }
  // Baseline: dropout bw, un-scale, zero table, scatter — each its own pass.
  kc.dev.launch(desc("torch.embedding_dropout_bw",
                     act_bytes + static_cast<int64_t>(mask.bytes()), act_bytes,
                     static_cast<double>(tokens) * H, 0.65),
                nullptr);
  kc.dev.launch(desc("torch.embedding_scale_bw", act_bytes, act_bytes,
                     static_cast<double>(tokens) * H, 0.70),
                nullptr);
  if (zero_first) {
    kc.dev.launch(desc("torch.embedding_zero_grad", 0, table_bytes, 0, 0.70),
                  [&] { d_emb.zero_(); });
  }
  kc.dev.launch(desc("torch.embedding_bw_scatter", act_bytes + tokens * 4, 2 * act_bytes,
                     static_cast<double>(tokens) * H, 0.55),
                [&, scale, p, pad_id] {
                  LS2_DISPATCH_FLOAT(dy.dtype(), T,
                                     embedding_bw_body<T>(dy, ids, mask, d_emb, scale, p,
                                                          pad_id));
                });
}

}  // namespace ls2::kern
